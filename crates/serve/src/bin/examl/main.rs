//! `examl` — command-line front end for de-centralized maximum-likelihood
//! inference, mirroring the original ExaML tool's interface: alignment +
//! optional partition file in, ML tree out, with `-Q` (monolithic data
//! distribution), `-M` (per-partition branch lengths), Γ/PSR model choice,
//! checkpoint/restart and configurable rank counts.
//!
//! ```text
//! examl --phylip data.phy [--partitions parts.txt] [--ranks 4]
//!       [--model GAMMA|PSR] [--kernel scalar|simd|auto] [-Q] [-M] [--seed 42]
//!       [--starting-tree random|parsimony|<file.nwk>]
//!       [--iterations 10] [--radius 5] [--epsilon 0.1]
//!       [--checkpoint-out DIR [--checkpoint-every 1]] [--resume DIR]
//!       [--binary-out data.exml | --binary-in data.exml]
//!       [--out-tree result.nwk] [--trace-out trace.json] [--quiet]
//! ```
//!
//! `examl serve …` runs the multi-tenant inference daemon and its client
//! verbs (see [`serve_cli`]). A plain run installs a SIGINT/SIGTERM bridge:
//! the signal checkpoint-preempts the search, committing a final generation
//! when `--checkpoint-out` is armed, and the process exits with code 4 so
//! wrappers can tell "interrupted but resumable" from real failures.
//!
//! Flag parsing lives in `examl_core::cli` and the run orchestration in
//! `examl_core::RunConfig` — this binary only wires the two together and
//! formats the output.

mod serve_cli;

use exa_bio::partition::{parse_partition_file, PartitionScheme};
use exa_bio::patterns::CompressedAlignment;
use exa_comm::{CommCategory, ReduceChoice};
use exa_search::{BranchMode, PreemptSignal, SearchConfig, StartingTree};
use examl_core::{CliConfig, CliError, RunConfig};
use std::process::ExitCode;

const USAGE: &str = "usage: examl (--phylip FILE | --fasta FILE | --binary-in FILE) [options]\n\
options:\n\
  --partitions FILE      RAxML-style partition file (DNA, name = a-b)\n\
  --ranks N              number of ranks (default 4)\n\
  --model GAMMA|PSR      rate heterogeneity model (default GAMMA)\n\
  --kernel K             likelihood-kernel backend: scalar | simd | auto\n\
                         (default auto: ranks negotiate the fastest backend\n\
                         all of them support; also via EXAML_KERNEL)\n\
  --site-repeats S       subtree-repeat CLV compression: on | off | auto\n\
                         (default auto: ranks negotiate a uniform setting,\n\
                         resolving to on; also via EXAML_SITE_REPEATS)\n\
  --reduce R             collective reduction mode: fast | reproducible |\n\
                         auto (reproducible sums are bitwise invariant to\n\
                         rank count and summation order; default fast,\n\
                         also via EXAML_REDUCE)\n\
  --threads N|auto       intra-rank worker threads per rank executing\n\
                         kernel batches task-parallel (bitwise invisible:\n\
                         the lnL trajectory is identical at any count;\n\
                         default auto, negotiated to the world minimum,\n\
                         also via EXAML_THREADS)\n\
  --gradient G           full-tree gradient route: on | off | auto (on\n\
                         computes all edge derivatives in one sweep with a\n\
                         single collective; branch smoothing is per-edge\n\
                         and does not use it; bitwise result-neutral;\n\
                         default auto, negotiated to the world minimum,\n\
                         also via EXAML_GRADIENT)\n\
  --batch on|off         pack small partitions into cache-sized kernel\n\
                         batches (default on; off = one dispatch per\n\
                         partition)\n\
  --resize-at ITER:WIDTH[,ITER:WIDTH...]\n\
                         shrink/grow the active rank pool to WIDTH at the\n\
                         start of iteration ITER (de-centralized scheme;\n\
                         requires --reduce reproducible or auto)\n\
  -Q                     monolithic per-partition data distribution (MPS)\n\
  -M                     per-partition branch lengths\n\
  --seed N               starting-tree seed (default 42)\n\
  --starting-tree S      random | parsimony | <newick file> (default parsimony)\n\
  --iterations N         max search iterations (default 10)\n\
  --radius N             SPR rearrangement radius (default 5)\n\
  --epsilon X            convergence threshold (default 0.1)\n\
  --checkpoint-out DIR   commit checkpoint generations into DIR (atomic\n\
                         write + rename)\n\
  --checkpoint-every N   checkpoint interval in iterations (default 1;\n\
                         0 disables the iteration cadence)\n\
  --checkpoint-every-secs S\n\
                         also checkpoint when S wall-clock seconds have\n\
                         passed since the last commit (alone, it disables\n\
                         the iteration cadence)\n\
  --checkpoint-keep N    checkpoint generations retained (default 3)\n\
  --resume DIR           resume from the newest intact generation in DIR\n\
  --inject-kill N[:RANK] die after N committed checkpoints — all ranks, or\n\
                         just RANK (restart chaos testing; exit code 3)\n\
  --binary-out FILE      write the compressed alignment in binary form and exit\n\
  --out-tree FILE        write the final Newick tree to FILE\n\
  --trace-out FILE       write a Chrome trace_event JSON trace to FILE\n\
                         (under --bootstrap: one trace per replicate, FILE.repN.json)\n\
  --bootstrap N          run N bootstrap replicates and annotate support\n\
  --verify-replicas N    compare replica state fingerprints every N collectives\n\
  --health-out FILE      append one heartbeat JSON line per iteration to FILE\n\
  --metrics-out FILE     write a Prometheus text-format metrics snapshot to\n\
                         FILE at exit (enables the metrics registry)\n\
  --inject-divergence RANK:COLLECTIVE:alpha|blen\n\
                         flip one state bit on RANK after COLLECTIVE collectives\n\
                         (sentinel fault-injection testing)\n\
  --reduce-override MODE[,MODE...]\n\
                         force per-rank reduce modes (cycled over ranks),\n\
                         overriding the negotiated one — a scripted\n\
                         mixed-mode world the sentinel catches at its first\n\
                         fingerprint sync (fault-injection testing)\n\
  --threads-override N[,N...]\n\
                         force per-rank thread counts (cycled over ranks),\n\
                         bypassing negotiation; a mixed table trips the\n\
                         sentinel via the backend fingerprint\n\
  --gradient-override on|off[,on|off...]\n\
                         force per-rank gradient modes (cycled over ranks),\n\
                         bypassing negotiation — a mixed world\n\
                         desynchronizes the collective sequence and the\n\
                         sentinel catches it at its first fingerprint sync\n\
  --ascii                also print an ASCII cladogram\n\
  --stats                print alignment statistics and memory estimates, then exit\n\
  --quiet                suppress progress output\n\
subcommands:\n\
  serve                  run the multi-tenant inference daemon / talk to one\n\
                         (examl serve --help)";

fn load_alignment(args: &CliConfig) -> Result<CompressedAlignment, String> {
    if let Some(path) = &args.binary_in {
        return exa_bio::binary::read_file(path).map_err(|e| e.to_string());
    }
    let alignment = if let Some(path) = &args.phylip {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        exa_bio::phylip::parse_phylip_auto(&text).map_err(|e| e.to_string())?
    } else if let Some(path) = &args.fasta {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        exa_bio::fasta::parse_fasta(&text).map_err(|e| e.to_string())?
    } else {
        return Err("no input alignment (use --phylip, --fasta or --binary-in)".into());
    };
    let scheme = match &args.partitions {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            parse_partition_file(&text, alignment.n_sites()).map_err(|e| e.to_string())?
        }
        None => PartitionScheme::unpartitioned(alignment.n_sites()),
    };
    Ok(CompressedAlignment::build(&alignment, &scheme))
}

fn main() -> ExitCode {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("serve") {
        raw.remove(0);
        return serve_cli::main(raw);
    }
    let args = match CliConfig::parse(raw) {
        Ok(args) => args,
        Err(CliError::Help) => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let compressed = match load_alignment(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.quiet {
        eprintln!(
            "alignment: {} taxa, {} partitions, {} unique patterns",
            compressed.n_taxa(),
            compressed.n_partitions(),
            compressed.total_patterns()
        );
    }

    if args.stats_only {
        // The ExaML-style pre-run advisory: pattern counts and the CLV
        // memory requirement under each rate model (PSR = 1/4 of Γ, §IV-C).
        println!("taxa                 : {}", compressed.n_taxa());
        println!("partitions           : {}", compressed.n_partitions());
        println!("sites                : {}", compressed.total_sites());
        println!("unique patterns      : {}", compressed.total_patterns());
        let gamma = exa_bio::stats::clv_memory_bytes(&compressed, 4);
        let psr = exa_bio::stats::clv_memory_bytes(&compressed, 1);
        println!(
            "CLV memory (GAMMA)   : {:.1} MiB",
            gamma as f64 / (1 << 20) as f64
        );
        println!(
            "CLV memory (PSR)     : {:.1} MiB",
            psr as f64 / (1 << 20) as f64
        );
        for (i, p) in compressed.partitions.iter().enumerate() {
            let gaps = exa_bio::stats::gap_fraction(p);
            let freqs = exa_bio::stats::empirical_frequencies(p);
            println!(
                "  partition {i:>4} {:<12} {:>6} patterns, {:>5.1}% gaps, pi = [{:.3} {:.3} {:.3} {:.3}]",
                p.name,
                p.n_patterns(),
                100.0 * gaps,
                freqs[0],
                freqs[1],
                freqs[2],
                freqs[3]
            );
        }
        return ExitCode::SUCCESS;
    }

    if let Some(path) = &args.binary_out {
        if let Err(e) = exa_bio::binary::write_file(path, &compressed) {
            eprintln!("error writing binary alignment: {e}");
            return ExitCode::FAILURE;
        }
        if !args.quiet {
            eprintln!("wrote binary alignment to {}", path.display());
        }
        return ExitCode::SUCCESS;
    }

    let starting_tree = match args.starting_tree.as_str() {
        "random" => StartingTree::Random,
        "parsimony" => StartingTree::Parsimony,
        path => match std::fs::read_to_string(path) {
            Ok(text) => StartingTree::Newick(text),
            Err(e) => {
                eprintln!("cannot read starting tree {path:?}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    let mut run = RunConfig::new(args.ranks)
        .rate_model(args.model)
        .branch_mode(if args.per_partition_branches {
            BranchMode::PerPartition
        } else {
            BranchMode::Joint
        })
        .strategy(if args.mps {
            exa_sched::Strategy::MonolithicLpt
        } else {
            exa_sched::Strategy::Cyclic
        })
        .search(SearchConfig {
            max_iterations: args.iterations,
            spr_radius: args.radius,
            epsilon: args.epsilon,
            ..SearchConfig::default()
        })
        .seed(args.seed)
        .starting_tree(starting_tree)
        .kernel(args.kernel)
        .site_repeats(args.site_repeats)
        .reduce(args.reduce)
        .threads(args.threads)
        .gradient(args.gradient)
        .batch(args.batch)
        .verify_replicas(args.verify_replicas);
    if !args.resize_at.is_empty() && matches!(args.reduce, ReduceChoice::Fast) {
        eprintln!(
            "--resize-at requires --reduce reproducible (or auto): only \
             rank-count-invariant reductions keep the lnL trajectory bitwise \
             stable across a width change"
        );
        return ExitCode::from(2);
    }
    for (iteration, width) in args.resize_at.iter().copied() {
        run = run.resize_at(iteration, width);
    }
    if let Some(path) = &args.checkpoint_out {
        run = run
            .checkpoint(path, args.resolved_checkpoint_every())
            .checkpoint_keep(args.checkpoint_keep);
        if let Some(secs) = args.checkpoint_every_secs {
            run = run.checkpoint_every_secs(secs);
        }
    }
    if let Some(path) = &args.resume {
        run = run.resume(path);
    }
    if let Some(spec) = args.inject_kill {
        if args.checkpoint_out.is_none() {
            eprintln!("--inject-kill requires --checkpoint-out");
            return ExitCode::from(2);
        }
        run = run.inject_kill(spec);
    }
    if let Some(fault) = args.inject_divergence {
        run = run.divergence_fault(fault);
    }
    if let Some(table) = args.reduce_override.clone() {
        run = run.reduce_override(table);
    }
    if let Some(table) = args.threads_override.clone() {
        run = run.threads_override(table);
    }
    if let Some(table) = args.gradient_override.clone() {
        run = run.gradient_override(table);
    }
    if let Some(path) = &args.health_out {
        run = run.health_out(path);
    }
    if args.metrics_out.is_some() {
        exa_obs::metrics::global().set_enabled(true);
    }
    if args.bootstrap > 0 {
        run = run.bootstrap(args.bootstrap, args.seed.wrapping_add(0xB00));
        if let Some(path) = &args.trace_out {
            run = run.bootstrap_trace_out(path);
        }
    } else {
        run = run.collect_trace(true);
    }

    // SIGINT/SIGTERM checkpoint-preempt the run instead of killing it
    // mid-iteration: a final generation is committed when --checkpoint-out
    // is armed, and the process exits with the distinct code 4.
    exa_serve::signal::install();
    let preempt = PreemptSignal::new();
    exa_serve::signal::bridge_to(preempt.clone());
    run = run.preempt(preempt);

    let start = std::time::Instant::now();
    let out = match run.run(&compressed) {
        Ok(out) => out,
        Err(e @ examl_core::RunError::Preempted { .. }) => {
            // Reached only via the signal bridge: no other preemption
            // source exists in plain-run mode. Code 4 = "interrupted, last
            // checkpoint intact, resume with --resume".
            eprintln!("{e}");
            if args.checkpoint_out.is_some() {
                eprintln!("interrupted: final checkpoint committed, resume with --resume");
            } else {
                eprintln!("interrupted (no --checkpoint-out, progress not preserved)");
            }
            return ExitCode::from(4);
        }
        Err(e @ examl_core::RunError::Killed { .. }) => {
            // The injected kill fired after committing its checkpoint
            // budget. Exit code 3 lets restart harnesses distinguish the
            // planned kill from real failures (1) and usage errors (2).
            eprintln!("{e}");
            return ExitCode::from(3);
        }
        Err(e) => {
            // A sentinel trip arrives here as a structured diagnostic naming
            // the first divergent collective, the minority ranks and the
            // differing state component(s).
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = start.elapsed();

    if !args.quiet {
        if let Some(bs) = &out.bootstrap {
            let mean: f64 = bs.support.values().sum::<f64>() / bs.support.len().max(1) as f64;
            eprintln!(
                "bootstrap    : {} replicates, mean split support {:.1}%",
                args.bootstrap, mean
            );
            if let Some(path) = &args.trace_out {
                eprintln!(
                    "wrote traces to {} (+ per-replicate {})",
                    path.display(),
                    examl_core::bootstrap::replicate_trace_path(path, 0).display()
                );
            }
        }
        eprintln!("final lnL    : {:.6}", out.result.lnl);
        eprintln!(
            "iterations   : {} (converged: {})",
            out.result.iterations, out.result.converged
        );
        eprintln!("SPR moves    : {}", out.result.spr_moves);
        eprintln!("wall time    : {elapsed:.2?}");
        eprintln!(
            "comm         : {} regions, {} bytes ({} B likelihood allreduces, {} B derivative allreduces)",
            out.comm_stats.total_regions(),
            out.comm_stats.total_bytes(),
            out.comm_stats.get(CommCategory::SiteLikelihoods).bytes,
            out.comm_stats.get(CommCategory::BranchLength).bytes,
        );
        // Analytic wall-time projection on the paper's reference cluster
        // (AMD Magny-Cours nodes), from this run's measured work + traffic.
        let spec = exa_comm::cluster::ClusterSpec::magny_cours(args.ranks.div_ceil(48).max(1));
        let profile = exa_comm::cluster::RunProfile::from_stats(
            &out.comm_stats,
            out.work.total(),
            out.mem_bytes,
        );
        let modeled = exa_comm::cluster::modeled_time(&spec, &profile);
        eprintln!(
            "modeled time : {:.3} s on {} nodes ({:.3} s compute, {:.3} s comm)",
            modeled.total_s, spec.nodes, modeled.compute_s, modeled.comm_s
        );
    }
    if let Some(trace) = &out.trace {
        if !args.quiet {
            eprint!("{}", exa_obs::summary_table(&trace.aggregate()));
        }
        if let Some(path) = &args.trace_out {
            if let Err(e) = exa_obs::write_chrome_trace(path, trace) {
                eprintln!("error writing trace: {e}");
                return ExitCode::FAILURE;
            }
            if !args.quiet {
                eprintln!("wrote trace to {}", path.display());
            }
        }
    }
    if !args.quiet {
        // End-of-run health report: kernel backend, sentinel verdict,
        // measured-vs-predicted load imbalance, heartbeat count, critical
        // path. The heartbeat *file* is written regardless of --quiet; only
        // this console rendering is suppressed.
        eprint!("{}", out.health.render());
    }
    if let Some(path) = &args.metrics_out {
        if let Err(e) = std::fs::write(path, exa_obs::metrics::global().render()) {
            eprintln!("error writing metrics: {e}");
            return ExitCode::FAILURE;
        }
        if !args.quiet {
            eprintln!("wrote metrics to {}", path.display());
        }
    }
    if args.ascii {
        let names: Vec<String> = compressed.taxa.clone();
        eprintln!("{}", out.state.tree.to_ascii(&names));
    }
    let final_tree = out
        .bootstrap
        .as_ref()
        .map(|bs| bs.annotated_newick.clone())
        .unwrap_or_else(|| out.tree_newick.clone());
    match &args.out_tree {
        Some(path) => {
            if let Err(e) = std::fs::write(path, format!("{final_tree}\n")) {
                eprintln!("error writing tree: {e}");
                return ExitCode::FAILURE;
            }
            if !args.quiet {
                eprintln!("wrote tree to {}", path.display());
            }
        }
        None => println!("{final_tree}"),
    }
    ExitCode::SUCCESS
}
