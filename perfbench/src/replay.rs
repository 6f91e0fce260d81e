//! The traced replay: a run rebuilt from the program's public pieces
//! (`distribute`, `build_engine`, `build_starting_tree`, the scheme's
//! evaluator, `run_search`) with the evaluator wrapped in the timing
//! decorator. It must end on the same lnL bits as `RunConfig::run`, or its
//! spans describe a different program.
//!
//! Tracing gap: the program emits no `RegionKind::Setup` or
//! `RegionKind::Checkpoint` events, and `smooth_pass` opens no region. The
//! replay therefore times setup and checkpoints itself, and books as
//! smoothing the part of `run_search` that no `spr_round` or
//! `model_opt_round` region and no boundary hook covers (the search loop runs
//! nothing else). In-program regions for these steps would remove the gap.

use crate::spans::{self, Span, SpanLog};
use crate::timed::Timed;
use exa_bio::patterns::CompressedAlignment;
use exa_comm::{CommStats, World};
use exa_forkjoin::ForkJoinEvaluator;
use exa_obs::{EventKind, Recorder, RegionKind, RunTrace};
use exa_phylo::engine::WorkCounters;
use exa_search::evaluator::{CommFailurePanic, Evaluator, GlobalState, SearchSnapshot};
use exa_search::{BoundaryInfo, BranchMode, SearchHooks, SearchResult};
use examl_core::checkpoint::{self, Checkpoint, CheckpointHeader, CheckpointPayload};
use examl_core::{DecentralizedEvaluator, RunConfig, RunOutcome, Scheme};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The capability values a run resolved to (the replay builds its engines
/// with exactly these), for printing beside its results.
pub fn resolved(out: &RunOutcome) -> String {
    format!(
        "kernel={} repeats={} reduce={} threads={} gradient={}",
        out.kernel.label(),
        out.site_repeats.label(),
        out.reduce.label(),
        out.threads,
        out.gradient.label()
    )
}

/// Parse the PHYLIP text and partition scheme and compress the patterns,
/// as the program's front end does.
pub fn load(phylip: &str, partitions: &str) -> CompressedAlignment {
    let aln = exa_bio::phylip::parse_phylip(phylip).expect("generated PHYLIP parses");
    let scheme = exa_bio::partition::parse_partition_file(partitions, aln.n_sites())
        .expect("generated partition scheme parses");
    exa_bio::patterns::CompressedAlignment::build(&aln, &scheme)
}

/// What the replay produced.
pub struct Replay {
    pub result: SearchResult,
    pub state: GlobalState,
    /// Kernel work summed over ranks.
    pub work: WorkCounters,
    /// CLV bytes summed over ranks.
    pub mem_bytes: u64,
    /// Communication statistics as the run reports them (rank 0).
    pub comm: CommStats,
    /// Packed kernel batches summed over ranks.
    pub batches: usize,
    pub n_patterns: usize,
    pub checkpoints: u64,
    pub checkpoint_bytes: u64,
    /// Every span, linked (parents set).
    pub spans: Vec<Span>,
    pub trace: RunTrace,
    /// Replay wall time from parsing to the returned tree.
    pub wall_s: f64,
}

struct RankOut {
    search: Option<(SearchResult, GlobalState, CommStats)>,
    work: WorkCounters,
    mem_bytes: u64,
    batches: usize,
    checkpoints: u64,
    checkpoint_bytes: u64,
    spans: Vec<Span>,
}

/// Replay `cfg` on the given input text with the capability values the
/// untraced run `resolved` to. Checkpoints go to `checkpoint_dir` when
/// `cfg` asks for them.
pub fn replay(
    phylip: &str,
    partitions: &str,
    cfg: &RunConfig,
    resolved: &RunOutcome,
    checkpoint_dir: Option<&Path>,
) -> Replay {
    assert_eq!(
        cfg.branch_mode,
        BranchMode::Joint,
        "the replay covers joint branch lengths"
    );
    assert!(
        checkpoint_dir.is_none() || cfg.scheme == Scheme::ForkJoin,
        "the replay writes checkpoints under the fork-join scheme only"
    );
    let epoch = Instant::now();
    let front = SpanLog::new(epoch, 0);
    let aln = front.time("bio.parse", || {
        exa_bio::phylip::parse_phylip(phylip).expect("generated PHYLIP parses")
    });
    let scheme = exa_bio::partition::parse_partition_file(partitions, aln.n_sites())
        .expect("generated partition scheme parses");
    let aln = front.time("bio.compress", || {
        exa_bio::patterns::CompressedAlignment::build(&aln, &scheme)
    });
    let freqs = exa_bio::stats::global_frequencies(&aln);
    let shared = exa_sched::SharedSlices::build(&aln);

    // The recorder's epoch lies between these two instants.
    let before = epoch.elapsed().as_nanos() as u64;
    let recorder = Recorder::new(cfg.n_ranks);
    let after = epoch.elapsed().as_nanos() as u64;
    let trace_offset_ns = (before + after) / 2;

    let outs: Vec<RankOut> = World::run_traced(cfg.n_ranks, Some(&recorder), |rank| {
        let log = SpanLog::new(epoch, rank.id());
        let assignments = log.time("sched.distribute", || {
            exa_sched::distribute(&aln, rank.world_size(), cfg.strategy)
        });
        let engine = log.time("sched.build_engine", || {
            exa_sched::build_engine(
                &aln,
                &assignments[rank.id()],
                &freqs,
                &exa_sched::EngineSpec {
                    rate_model: cfg.rate_model,
                    kernel: resolved.kernel,
                    site_repeats: resolved.site_repeats,
                    threads: resolved.threads,
                    batch: cfg.batch,
                },
                Some(&shared),
            )
        });
        let batches = engine.batch_count();
        let is_worker = cfg.scheme == Scheme::ForkJoin && rank.id() != 0;
        if is_worker {
            let (work, mem_bytes) = log.time("forkjoin.worker_loop", || {
                exa_forkjoin::worker::worker_loop(
                    rank.clone(),
                    engine,
                    cfg.branch_mode,
                    aln.n_partitions(),
                    resolved.reduce,
                    &assignments[rank.id()],
                    &aln,
                )
            });
            return RankOut {
                search: None,
                work,
                mem_bytes,
                batches,
                checkpoints: 0,
                checkpoint_bytes: 0,
                spans: log.take(),
            };
        }
        let tree = log.time("search.start_tree", || {
            exa_search::build_starting_tree(&aln, &cfg.starting_tree, 1, cfg.seed)
        });
        let mut hooks = Hooks {
            log: log.clone(),
            checkpoint: checkpoint_dir.map(|dir| CheckpointSink {
                dir: dir.to_path_buf(),
                keep: cfg.checkpoint_keep,
                every: cfg.checkpoint_every,
                header: header(cfg, &aln, resolved),
                aln: &aln,
                assignments: &assignments,
            }),
            checkpoints: 0,
            checkpoint_bytes: 0,
        };
        let (result, state, work, mem_bytes) = match cfg.scheme {
            Scheme::Decentralized => {
                let mut eval = DecentralizedEvaluator::new(
                    rank.clone(),
                    tree,
                    engine,
                    aln.n_partitions(),
                    cfg.branch_mode,
                );
                eval.set_reduce(resolved.reduce);
                eval.set_gradient(resolved.gradient);
                let mut timed = Timed::new(eval, log.clone());
                let result = log.time("search.run", || {
                    exa_search::run_search(&mut timed, &cfg.search, &mut hooks)
                });
                let eval = timed.into_inner();
                let engine = eval.engine();
                (result, eval.snapshot(), engine.work(), engine.clv_bytes())
            }
            Scheme::ForkJoin => {
                let eval = ForkJoinEvaluator::new(
                    rank.clone(),
                    tree,
                    engine,
                    aln.n_partitions(),
                    cfg.branch_mode,
                    resolved.reduce,
                )
                .with_gradient(resolved.gradient);
                let mut timed = Timed::new(eval, log.clone());
                let result = log.time("search.run", || {
                    exa_search::run_search(&mut timed, &cfg.search, &mut hooks)
                });
                let mut eval = timed.into_inner();
                eval.shutdown_workers();
                let engine = eval.engine();
                (result, eval.snapshot(), engine.work(), engine.clv_bytes())
            }
        };
        RankOut {
            search: Some((result, state, rank.stats())),
            work,
            mem_bytes,
            batches,
            checkpoints: hooks.checkpoints,
            checkpoint_bytes: hooks.checkpoint_bytes,
            spans: log.take(),
        }
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let trace = Recorder::finish(recorder);

    let mut all_spans = front.take();
    let mut work = WorkCounters::default();
    let mut mem_bytes = 0;
    let mut batches = 0;
    let mut checkpoints = 0;
    let mut checkpoint_bytes = 0;
    let mut search = None;
    for out in outs {
        work = work.merge(&out.work);
        mem_bytes += out.mem_bytes;
        batches += out.batches;
        checkpoints += out.checkpoints;
        checkpoint_bytes += out.checkpoint_bytes;
        all_spans.extend(out.spans);
        if search.is_none() {
            search = out.search;
        }
    }
    let (result, state, comm) = search.expect("rank 0 runs the search");
    for rank in 0..trace.n_ranks() {
        all_spans.extend(trace_spans(&trace, rank, trace_offset_ns));
    }
    let smoothing = smoothing_spans(&all_spans);
    all_spans.extend(smoothing);
    spans::link(&mut all_spans);
    Replay {
        result,
        state,
        work,
        mem_bytes,
        comm,
        batches,
        n_patterns: aln.total_patterns(),
        checkpoints,
        checkpoint_bytes,
        spans: all_spans,
        trace,
        wall_s,
    }
}

/// The header `RunConfig::run` writes for a fork-join checkpoint.
fn header(cfg: &RunConfig, aln: &CompressedAlignment, resolved: &RunOutcome) -> CheckpointHeader {
    CheckpointHeader {
        format_version: 0, // sealed by Checkpoint::build
        scheme: "forkjoin".into(),
        kernel: resolved.kernel.label().into(),
        site_repeats: resolved.site_repeats.label().into(),
        rank_count: cfg.n_ranks,
        rate_model: format!("{:?}", cfg.rate_model),
        branch_mode: format!("{:?}", cfg.branch_mode),
        seed: cfg.seed,
        n_taxa: aln.n_taxa(),
        n_partitions: aln.n_partitions(),
        iteration: 0,
        payload_len: 0,
        payload_fingerprint: 0,
        reduce_mode: Some(resolved.reduce.label().into()),
        gradient: Some(resolved.gradient.label().into()),
    }
}

struct CheckpointSink<'a> {
    dir: PathBuf,
    keep: usize,
    every: usize,
    header: CheckpointHeader,
    aln: &'a CompressedAlignment,
    assignments: &'a [exa_sched::RankAssignment],
}

/// Boundary hooks: a span per boundary, and the fork-join master's
/// checkpoint cadence (gather the PSR rates, write a generation).
struct Hooks<'a> {
    log: SpanLog,
    checkpoint: Option<CheckpointSink<'a>>,
    checkpoints: u64,
    checkpoint_bytes: u64,
}

impl SearchHooks for Hooks<'_> {
    fn at_boundary(&mut self, eval: &mut dyn Evaluator, info: &BoundaryInfo) {
        let start = self.log.now_ns();
        if let Some(sink) = &self.checkpoint {
            if sink.every > 0 && info.iteration.is_multiple_of(sink.every) {
                let bytes = self.log.time("core.checkpoint", || {
                    let fj = eval
                        .as_any_mut()
                        .downcast_mut::<ForkJoinEvaluator>()
                        .expect("checkpoints are replayed under fork-join");
                    let snap = SearchSnapshot {
                        iteration: info.iteration,
                        lnl_bits: info.lnl.to_bits(),
                        spr_moves: info.spr_moves,
                        psr_rates: fj.collect_site_rates(sink.aln, sink.assignments),
                        state: fj.snapshot(),
                    };
                    let ckpt = Checkpoint::build(
                        sink.header.clone(),
                        CheckpointPayload {
                            snapshot: snap,
                            bootstrap: None,
                        },
                    );
                    let (_, path) =
                        checkpoint::save_generation_keeping(&sink.dir, &ckpt, sink.keep)
                            .expect("checkpoint write failed");
                    std::fs::metadata(path).map_or(0, |m| m.len())
                });
                self.checkpoints += 1;
                self.checkpoint_bytes += bytes;
            }
        }
        self.log.push("core.boundary", start, self.log.now_ns());
    }

    fn on_failure(&mut self, _eval: &mut dyn Evaluator, _failure: &CommFailurePanic) -> bool {
        false
    }
}

/// Spans for the program's own regions on `rank`: search phases, kernel
/// entry points and collective waits.
fn trace_spans(trace: &RunTrace, rank: usize, offset_ns: u64) -> Vec<Span> {
    let name = |r: RegionKind| -> Option<&'static str> {
        match r {
            RegionKind::SprRound => Some("search.spr_round"),
            RegionKind::ModelOptRound => Some("search.model_opt_round"),
            RegionKind::Newview => Some("phylo.newview"),
            RegionKind::Evaluate => Some("phylo.evaluate"),
            RegionKind::CoreDerivative => Some("phylo.core_derivative"),
            RegionKind::CollectiveWait => Some("comm.wait"),
            // Never emitted by the program, and timed here instead.
            RegionKind::NrIteration | RegionKind::Checkpoint | RegionKind::Setup => None,
        }
    };
    let mut open: Vec<(RegionKind, u64)> = Vec::new();
    let mut out = Vec::new();
    for ev in trace.events(rank) {
        match &ev.kind {
            EventKind::RegionBegin { region } => open.push((*region, ev.ts_ns)),
            EventKind::RegionEnd { region } => {
                let pos = open
                    .iter()
                    .rposition(|(r, _)| r == region)
                    .expect("region ends after it begins");
                let (_, start) = open.remove(pos);
                if let Some(n) = name(*region) {
                    out.push(Span {
                        name: n,
                        rank,
                        start_ns: start + offset_ns,
                        end_ns: ev.ts_ns + offset_ns,
                        parent: None,
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// `search.smooth` spans: the parts of each `search.run` span that no SPR
/// round, model-optimization round or boundary hook covers.
fn smoothing_spans(spans: &[Span]) -> Vec<Span> {
    let mut out = Vec::new();
    for run in spans.iter().filter(|s| s.name == "search.run") {
        let mut phases: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| {
                s.rank == run.rank
                    && matches!(
                        s.name,
                        "search.spr_round" | "search.model_opt_round" | "core.boundary"
                    )
                    && s.start_ns >= run.start_ns
                    && s.start_ns < run.end_ns
            })
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        phases.sort_unstable();
        let mut cursor = run.start_ns;
        for (start, end) in phases.into_iter().chain([(run.end_ns, run.end_ns)]) {
            if start > cursor {
                out.push(Span {
                    name: "search.smooth",
                    rank: run.rank,
                    start_ns: cursor,
                    end_ns: start,
                    parent: None,
                });
            }
            cursor = cursor.max(end);
        }
    }
    out
}
