//! **Gradient guard** — the one-pass analytic full-tree gradient as a
//! tested API, and proof that the search does not run it.
//!
//! ```text
//! cargo run -p examl-bench --release --bin gradient -- \
//!     [--taxa 64] [--partitions 4] [--chunk 150] [--ranks 2] [--guard]
//! ```
//!
//! Two parts, both executed for real (in-process ranks, reproducible
//! reductions):
//!
//! 1. **Search.** The same run under `--gradient on` and `--gradient off`
//!    must end on bitwise-identical lnL, and the metrics registry's
//!    `exa_gradient_sweeps_total` must not move: branch smoothing is
//!    per-edge Gauss–Seidel Newton under either mode. Reports wall time and
//!    the derivative collectives spent in smoothing
//!    (`exa_blo_collectives_total`) per run.
//! 2. **API.** On the smoothed tree that search returns, every rank calls
//!    `Evaluator::full_gradient` under `On` and under `Off`. The two `d1`
//!    / `d2` tables must be bitwise identical, and one sweep must spend at
//!    least 10x fewer collectives than the per-edge route (1 vs
//!    `n_edges`). Reports wall time per call for each route.
//!
//! With `--guard`, any failed check exits non-zero.

use exa_bio::stats::global_frequencies;
use exa_comm::{ReduceChoice, ReduceKind, World};
use exa_phylo::engine::GradientChoice;
use exa_phylo::model::rates::RateModelKind;
use exa_phylo::{GradientMode, KernelChoice, RepeatsChoice};
use exa_search::evaluator::{BranchMode, Evaluator, FullGradient, GlobalState};
use exa_search::SearchConfig;
use exa_simgen::workloads;
use examl_bench::{write_json, write_markdown, MeasuredRun};
use examl_core::DecentralizedEvaluator;
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct SearchRun {
    run: MeasuredRun,
    blo_collectives: u64,
    gradient_sweeps: u64,
}

#[derive(Serialize)]
struct CallRoute {
    collectives_per_call: u64,
    seconds_per_call: f64,
}

#[derive(Serialize)]
struct GradientReport {
    taxa: usize,
    edges: usize,
    ranks: usize,
    search_on: SearchRun,
    search_off: SearchRun,
    search_lnl_bitwise_identical: bool,
    calls: usize,
    /// Sweeps the registry counted during the API part: one per rank per
    /// `On` call, which shows the counter the search check reads is live.
    api_gradient_sweeps: u64,
    call_on: CallRoute,
    call_off: CallRoute,
    tables_bitwise_identical: bool,
    collective_drop: f64,
}

fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

fn arg_usize(args: &[String], key: &str, default: usize) -> usize {
    arg_value(args, key)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The (monotonic, process-global) registry counters this harness reads.
fn counters() -> (u64, u64) {
    let reg = exa_obs::metrics::global();
    (
        reg.counter("exa_blo_collectives_total", "", &[]).get(),
        reg.counter("exa_gradient_sweeps_total", "", &[]).get(),
    )
}

/// Run the search once; return the measurement, the final state and the
/// BLO collectives and gradient sweeps this run added to the registry.
fn search_once(
    w: &workloads::Workload,
    ranks: usize,
    gradient: GradientChoice,
) -> (SearchRun, GlobalState) {
    let (blo0, sweeps0) = counters();
    let mut cfg = examl_core::RunConfig::new(ranks);
    cfg.rate_model = RateModelKind::Gamma;
    cfg.branch_mode = BranchMode::Joint;
    cfg.search = SearchConfig {
        max_iterations: 3,
        epsilon: 0.05,
        spr_radius: 3,
        smoothing_passes: 1,
        optimize_model: true,
        model_tol: 1e-2,
    };
    cfg.seed = 5;
    cfg.reduce = ReduceChoice::Reproducible;
    cfg.gradient = gradient;
    let t0 = Instant::now();
    let out = cfg.run(&w.compressed).unwrap();
    let run = MeasuredRun::new(
        out.result.lnl,
        out.result.iterations,
        &out.comm_stats,
        &out.work,
        out.mem_bytes,
        t0.elapsed().as_secs_f64(),
    );
    let (blo1, sweeps1) = counters();
    let search = SearchRun {
        run,
        blo_collectives: blo1 - blo0,
        gradient_sweeps: sweeps1 - sweeps0,
    };
    (search, out.state)
}

/// One route's `full_gradient` table (from the last call), its collectives
/// per call and rank 0's median wall time per call.
/// Timed `full_gradient` calls per route, after one untimed warm-up call.
const CALLS: usize = 5;

struct Measured {
    table: FullGradient,
    seconds: f64,
}

/// Call `full_gradient` [`CALLS`] times per route on every rank of a
/// de-centralized world holding `state`, after one untimed warm-up call.
fn measure_calls(
    w: &Arc<workloads::Workload>,
    ranks: usize,
    state: &GlobalState,
) -> (Measured, Measured) {
    let w = Arc::clone(w);
    let state = state.clone();
    let mut per_rank = World::run(ranks, move |rank| {
        let aln = &w.compressed;
        let freqs = global_frequencies(aln);
        let assignments =
            exa_sched::distribute(aln, rank.world_size(), exa_sched::Strategy::Cyclic);
        let engine = exa_sched::build_engine(
            aln,
            &assignments[rank.id()],
            &freqs,
            &exa_sched::EngineSpec::new(
                RateModelKind::Gamma,
                KernelChoice::from_env().resolve_local(),
                RepeatsChoice::from_env().resolve_local(),
            ),
            None,
        );
        let mut eval = DecentralizedEvaluator::new(
            rank.clone(),
            state.tree.clone(),
            engine,
            aln.n_partitions(),
            BranchMode::Joint,
        );
        eval.set_reduce(ReduceKind::Reproducible);
        eval.restore(&state);
        let mut route = |mode: GradientMode| {
            eval.set_gradient(mode);
            let mut table = eval.full_gradient();
            let mut times = Vec::with_capacity(CALLS);
            for _ in 0..CALLS {
                let t0 = Instant::now();
                table = eval.full_gradient();
                times.push(t0.elapsed().as_secs_f64());
            }
            times.sort_by(f64::total_cmp);
            Measured {
                table,
                seconds: times[times.len() / 2],
            }
        };
        let on = route(GradientMode::On);
        let off = route(GradientMode::Off);
        (on, off)
    });
    per_rank.swap_remove(0)
}

fn bitwise_equal(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(u, v)| u.to_bits() == v.to_bits())
        })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let taxa = arg_usize(&args, "--taxa", 64);
    let partitions = arg_usize(&args, "--partitions", 4);
    let chunk = arg_usize(&args, "--chunk", 150);
    let ranks = arg_usize(&args, "--ranks", 2);
    let guard = args.iter().any(|a| a == "--guard");

    exa_obs::metrics::global().set_enabled(true);
    eprintln!("generating {taxa}-taxon workload ({partitions} x {chunk} bp)...");
    let w = Arc::new(workloads::partitioned(taxa, partitions, chunk, 7));
    let edges = 2 * taxa - 3;

    eprintln!("  search, --gradient off ...");
    let (search_off, _) = search_once(&w, ranks, GradientChoice::Off);
    eprintln!("  search, --gradient on ...");
    let (search_on, smoothed) = search_once(&w, ranks, GradientChoice::On);
    eprintln!("  full_gradient on the smoothed tree, {CALLS} calls per route ...");
    let sweeps0 = counters().1;
    let (on, off) = measure_calls(&w, ranks, &smoothed);
    let api_sweeps = counters().1 - sweeps0;
    let expected_api_sweeps = (ranks * (CALLS + 1)) as u64;

    let search_identical = search_on.run.lnl.to_bits() == search_off.run.lnl.to_bits();
    let tables_identical =
        bitwise_equal(&on.table.d1, &off.table.d1) && bitwise_equal(&on.table.d2, &off.table.d2);
    let drop = off.table.collectives as f64 / on.table.collectives.max(1) as f64;

    let mut md = String::new();
    md.push_str("# Gradient guard: full-tree sweep as an API, off the search path\n\n");
    md.push_str(&format!(
        "{taxa} taxa ({edges} edges), {partitions} partitions, GAMMA, joint \
         branch lengths, {ranks} ranks, reproducible reductions.\n\n\
         **Search.** Branch smoothing is per-edge Gauss–Seidel Newton under \
         either mode, so both runs spend the same derivative collectives and \
         run no gradient sweep.\n\n",
    ));
    md.push_str("| search | wall s | BLO collectives | gradient sweeps | lnL |\n");
    md.push_str("|---|---|---|---|---|\n");
    for (label, s) in [("gradient on", &search_on), ("gradient off", &search_off)] {
        md.push_str(&format!(
            "| {label} | {:.2} | {} | {} | {:.6} |\n",
            s.run.wall_seconds, s.blo_collectives, s.gradient_sweeps, s.run.lnl
        ));
    }
    md.push_str(&format!(
        "\nFinal lnL bitwise identical: **{search_identical}**.\n\n\
         **API.** `Evaluator::full_gradient` on the smoothed tree, rank 0's \
         median of {CALLS} calls per route.\n\n",
    ));
    md.push_str("| route | collectives per call | ms per call |\n");
    md.push_str("|---|---|---|\n");
    for (label, m) in [("sweep (on)", &on), ("per-edge (off)", &off)] {
        md.push_str(&format!(
            "| {label} | {} | {:.2} |\n",
            m.table.collectives,
            m.seconds * 1e3
        ));
    }
    md.push_str(&format!(
        "\nCollective drop per call: **{drop:.1}x** (guard threshold 10x). \
         d1/d2 tables bitwise identical: **{tables_identical}**. Gradient \
         sweeps counted during these calls: {api_sweeps} (one per rank per \
         `on` call, warm-up included).\n",
    ));
    println!("{md}");

    let report = GradientReport {
        taxa,
        edges,
        ranks,
        search_lnl_bitwise_identical: search_identical,
        search_on,
        search_off,
        calls: CALLS,
        api_gradient_sweeps: api_sweeps,
        call_on: CallRoute {
            collectives_per_call: on.table.collectives,
            seconds_per_call: on.seconds,
        },
        call_off: CallRoute {
            collectives_per_call: off.table.collectives,
            seconds_per_call: off.seconds,
        },
        tables_bitwise_identical: tables_identical,
        collective_drop: drop,
    };
    write_markdown("gradient", &md);
    write_json("gradient", &report);

    if guard {
        let mut failures = Vec::new();
        if !report.search_lnl_bitwise_identical {
            failures.push("gradient mode changed the search's final lnL".to_string());
        }
        for (label, s) in [("on", &report.search_on), ("off", &report.search_off)] {
            if s.gradient_sweeps != 0 {
                failures.push(format!(
                    "search under --gradient {label} ran {} gradient sweeps",
                    s.gradient_sweeps
                ));
            }
        }
        if report.api_gradient_sweeps != expected_api_sweeps {
            failures.push(format!(
                "sweep counter moved by {} during the API calls, expected {expected_api_sweeps}",
                report.api_gradient_sweeps
            ));
        }
        if !report.tables_bitwise_identical {
            failures.push("full_gradient tables differ between on and off".to_string());
        }
        if drop < 10.0 {
            failures.push(format!("per-call collective drop {drop:.1}x < 10x"));
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("GUARD FAILED: {f}");
            }
            std::process::exit(1);
        }
    }
}
