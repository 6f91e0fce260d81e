//! `examl-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Pins itself to one core (see `cpu.rs`), draws `DATASETS` alignments
//! (PHYLIP text plus partition scheme) from the seed, then, in one process
//! and one job at a time (a closed loop):
//!
//! 1. times set-up (parse, compress, per-rank `distribute` and
//!    `build_engine`, parsimony starting tree) round-robin over the
//!    datasets, at least `SETUP_REPS` times and for `SETUP_SECONDS`, and
//!    reports the median;
//! 2. runs a warm-up job on dataset 0, then jobs (parse, compress,
//!    `RunConfig::run`) untraced, round-robin over the datasets, until
//!    `--seconds` have passed and every dataset ran once timed, checking
//!    every result. `cpu_s` is each dataset's median job, averaged over
//!    the datasets; the deterministic outputs are means over datasets;
//! 3. with `--trace 1`, replays dataset 0 once with spans (see
//!    `replay.rs`), prints the self-time table, writes the spans, and
//!    reports the per-layer metrics instead of the end-to-end ones.
//!
//! Set-up and job times are process CPU times scaled to a nominal core by
//! the reference kernel run between jobs (see `reference.rs`); the measured
//! CPU and wall-clock times go to standard error and the per-layer table.
//!
//! The last line of standard output is one JSON object:
//! `{"correct","attempted","failed","metrics"}`. Scratch files go to
//! `.perfbench_out/` in the working directory.

use examl_core::{RunConfig, RunOutcome};
use examl_perfbench::cpu;
use examl_perfbench::layers::{self, Metric};
use examl_perfbench::reference;
use examl_perfbench::replay;
use examl_perfbench::workload::{self, Inputs, Spec};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups timed at least.
const SETUP_REPS: usize = 3;
/// Keep timing set-ups until this much time went into them, so a cheap
/// set-up still yields a steady median.
const SETUP_SECONDS: f64 = 1.5;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = workload::find(&name).ok_or_else(|| {
        let names: Vec<_> = workload::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    Ok(Args {
        spec,
        seed: seed.unwrap_or(spec.default_seed),
        seconds,
        trace,
    })
}

/// The program reads `EXAML_*` (and a debug `EXA_*`) variables as
/// defaults; the benchmark refuses to run under any of them.
fn check_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("EXAML_") || k.starts_with("EXA_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!("unset {} before benchmarking", set.join(", ")))
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The median of a dataset's jobs, by one of their times.
fn median_of(times: &[Scaled], f: impl Fn(&Scaled) -> f64) -> f64 {
    median(&times.iter().map(f).collect::<Vec<_>>())
}

/// Everything before the first likelihood evaluation, through the public
/// calls the run makes: parse, compress, then on every rank `distribute`,
/// `build_engine` and (where the rank searches) the starting tree.
fn setup_once(inputs: &Inputs, cfg: &RunConfig) -> f64 {
    let c0 = cpu::process_cpu_s();
    let aln = replay::load(&inputs.phylip, &inputs.partitions);
    let freqs = exa_bio::stats::global_frequencies(&aln);
    let shared = exa_sched::SharedSlices::build(&aln);
    exa_comm::World::run(cfg.n_ranks, |rank| {
        let assignments = exa_sched::distribute(&aln, rank.world_size(), cfg.strategy);
        let engine = exa_sched::build_engine(
            &aln,
            &assignments[rank.id()],
            &freqs,
            &exa_sched::EngineSpec::new(
                cfg.rate_model,
                cfg.kernel.resolve_local(),
                cfg.site_repeats.resolve_local(),
            ),
            Some(&shared),
        );
        std::hint::black_box(engine.clv_bytes());
        if cfg.scheme == examl_core::Scheme::Decentralized || rank.id() == 0 {
            let tree = exa_search::build_starting_tree(&aln, &cfg.starting_tree, 1, cfg.seed);
            std::hint::black_box(tree.n_edges());
        }
    });
    cpu::process_cpu_s() - c0
}

/// The times of one job.
#[derive(Debug, Clone, Copy)]
struct Times {
    /// CPU seconds of all ranks.
    cpu: f64,
    /// Wall-clock seconds.
    wall: f64,
}

/// One job: parse, compress, run, until the final tree returns.
fn job(inputs: &Inputs, cfg: &RunConfig) -> Result<(Times, RunOutcome), String> {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let c0 = cpu::process_cpu_s();
        let t0 = Instant::now();
        let aln = replay::load(&inputs.phylip, &inputs.partitions);
        let out = cfg.run(&aln);
        let times = Times {
            cpu: cpu::process_cpu_s() - c0,
            wall: t0.elapsed().as_secs_f64(),
        };
        (times, out)
    }));
    match run {
        Ok((times, Ok(out))) => Ok((times, out)),
        Ok((_, Err(e))) => Err(format!("run error: {e}")),
        Err(_) => Err("run panicked".into()),
    }
}

/// Output checks of one job; `reference` holds the lnL bits of the first
/// good job on the same dataset.
fn check(out: &RunOutcome, inputs: &Inputs, reference: Option<u64>) -> Result<(), String> {
    let lnl = out.result.lnl;
    if !lnl.is_finite() {
        return Err(format!("non-finite lnL {lnl}"));
    }
    for taxon in &inputs.taxa {
        let n = [format!("({taxon}:"), format!(",{taxon}:")]
            .iter()
            .map(|p| out.tree_newick.matches(p.as_str()).count())
            .sum::<usize>();
        if n != 1 {
            return Err(format!("taxon {taxon} appears {n} times in the final tree"));
        }
    }
    if let Some(bits) = reference {
        if bits != lnl.to_bits() {
            return Err(format!(
                "lnL bits {:016x} differ from the first run's {bits:016x}",
                lnl.to_bits()
            ));
        }
    }
    Ok(())
}

fn fresh_dir(path: &Path) -> std::io::Result<()> {
    if path.exists() {
        std::fs::remove_dir_all(path)?;
    }
    std::fs::create_dir_all(path)
}

fn json_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A timed job's times and the factor that scales its CPU time to the
/// reference core (`reference::scale`).
struct Scaled {
    times: Times,
    scale: f64,
}

/// One alignment of a run and what its jobs returned.
struct Dataset {
    inputs: Inputs,
    times: Vec<Scaled>,
    /// The first good outcome; later jobs must match its lnL bits.
    first: Option<RunOutcome>,
}

fn run(args: &Args) -> Result<String, String> {
    let spec = args.spec;
    let io = |e: std::io::Error| format!("scratch directory: {e}");
    let work_dir = PathBuf::from(".perfbench_out").join(format!("{}-{}", spec.name, args.seed));
    fresh_dir(&work_dir).map_err(io)?;
    let ckpt_dir = work_dir.join("checkpoints");
    let mut cfg = spec.config();
    if let Some(every) = spec.checkpoint_every {
        cfg = cfg.checkpoint(&ckpt_dir, every);
    }
    let core = cpu::pin_to_one_core()?;
    eprintln!(
        "workload {} seed {} ({} datasets; {} ranks x 1 thread, all on core {core})",
        spec.name,
        args.seed,
        workload::DATASETS,
        cfg.n_ranks,
    );
    let mut datasets: Vec<Dataset> = (0..workload::DATASETS)
        .map(|k| Dataset {
            inputs: spec.inputs(workload::dataset_seed(args.seed, k)),
            times: Vec::new(),
            first: None,
        })
        .collect();

    // Reference runs bracket the set-ups and every job; `refs` keeps them
    // all, `last_ref` the latest.
    let mut last_ref = reference::run_s();
    let mut refs = vec![last_ref];
    let setup_start = Instant::now();
    let mut setup = Vec::new();
    while setup.len() < SETUP_REPS || setup_start.elapsed().as_secs_f64() < SETUP_SECONDS {
        setup.push(setup_once(
            &datasets[setup.len() % datasets.len()].inputs,
            &cfg,
        ));
    }
    let ref_after_setup = reference::run_s();
    refs.push(ref_after_setup);
    let setup_scale = reference::scale(last_ref, ref_after_setup);
    last_ref = ref_after_setup;

    // A warm-up job on dataset 0, checked but not timed, then round-robin
    // over the datasets until the time is up and every dataset ran once
    // timed, so dataset 0 has a repeat to match. Only that floor is fixed,
    // which bounds a run on a slow machine.
    let min_jobs = datasets.len() + 1;
    let start = Instant::now();
    let mut attempted = 0;
    let mut failed = 0;
    while attempted < min_jobs || start.elapsed().as_secs_f64() < args.seconds {
        let n = datasets.len();
        let warm_up = attempted == 0;
        let d = &mut datasets[attempted.saturating_sub(1) % n];
        if spec.checkpoint_every.is_some() {
            fresh_dir(&ckpt_dir).map_err(io)?;
        }
        attempted += 1;
        let reference = d.first.as_ref().map(|o| o.result.lnl.to_bits());
        let outcome = job(&d.inputs, &cfg);
        let ref_after = reference::run_s();
        refs.push(ref_after);
        let scale = reference::scale(last_ref, ref_after);
        last_ref = ref_after;
        match outcome.and_then(|(times, out)| {
            check(&out, &d.inputs, reference)?;
            Ok((times, out))
        }) {
            Ok((times, out)) => {
                if !warm_up {
                    d.times.push(Scaled { times, scale });
                }
                d.first.get_or_insert(out);
            }
            Err(e) => {
                eprintln!("job {attempted} failed: {e}");
                failed += 1;
            }
        }
        if attempted >= min_jobs && datasets.iter().any(|d| d.times.is_empty()) {
            return Err(format!(
                "every job of a dataset failed ({failed} of {attempted})"
            ));
        }
    }
    let mut per_dataset = Vec::new();
    for (k, d) in datasets.iter().enumerate() {
        let out = d.first.as_ref().expect("every dataset has a good job");
        let rf = exa_phylo::tree::bipartitions::rf_distance(&out.state.tree, &d.inputs.true_tree);
        let splits = d.inputs.true_tree.n_taxa() - 3;
        eprintln!(
            "dataset {k}: {}; lnL {} (bits {:016x}); RF to the generating tree {rf}/{}; \
             jobs (cpu s, wall s, scale) {:?}",
            replay::resolved(out),
            out.result.lnl,
            out.result.lnl.to_bits(),
            2 * splits,
            d.times
                .iter()
                .map(|t| (t.times.cpu, t.times.wall, t.scale))
                .collect::<Vec<_>>()
        );
        per_dataset.push([
            -out.result.lnl,
            1.0 - rf as f64 / (2 * splits) as f64,
            out.mem_bytes as f64 / (1u64 << 20) as f64,
            median_of(&d.times, |t| t.times.cpu * t.scale),
            median_of(&d.times, |t| t.times.cpu),
            median_of(&d.times, |t| t.times.wall),
        ]);
    }
    let mean = |i: usize| per_dataset.iter().map(|v| v[i]).sum::<f64>() / per_dataset.len() as f64;
    let (cpu_s, raw_cpu_s) = (mean(3), mean(4));
    let ref_s = median(&refs);
    eprintln!(
        "median job per dataset, mean over datasets: cpu {cpu_s} s scaled, {raw_cpu_s} s \
         measured, wall {} s; reference runs {refs:?}",
        mean(5)
    );
    eprintln!(
        "{attempted} jobs attempted, {failed} failed; {} set-ups {setup:?}",
        setup.len()
    );

    let metrics = if args.trace {
        // The replay covers dataset 0.
        let d = &datasets[0];
        let out = d.first.as_ref().expect("dataset 0 has a good job");
        if spec.checkpoint_every.is_some() {
            fresh_dir(&ckpt_dir).map_err(io)?;
        }
        let rep = replay::replay(
            &d.inputs.phylip,
            &d.inputs.partitions,
            &cfg,
            out,
            spec.checkpoint_every.map(|_| ckpt_dir.as_path()),
        );
        if rep.result.lnl.to_bits() != out.result.lnl.to_bits() {
            return Err(format!(
                "traced replay ended on lnL bits {:016x}, the untraced run on {:016x}: \
                 the spans would describe a different program",
                rep.result.lnl.to_bits(),
                out.result.lnl.to_bits()
            ));
        }
        let table = (0..cfg.n_ranks)
            .map(|r| layers::self_time_table(&rep, r))
            .collect::<Vec<_>>()
            .join("\n");
        eprint!("{table}");
        std::fs::write(work_dir.join("self_time.txt"), &table).map_err(io)?;
        std::fs::write(
            work_dir.join("spans.jsonl"),
            examl_perfbench::spans::to_json_lines(&rep.spans),
        )
        .map_err(io)?;
        let untraced = layers::Untraced {
            wall_s: per_dataset[0][5],
            cpu_s: raw_cpu_s,
            reference_s: ref_s,
        };
        layers::per_layer(&rep, &out.comm_stats, &untraced)
    } else {
        let metric = |name: &str, unit: &'static str, value: f64| Metric {
            name: name.into(),
            unit,
            value,
        };
        vec![
            metric("cpu_s", "s", cpu_s),
            metric("setup_s", "s", median(&setup) * setup_scale),
            metric("neg_lnl", "lnL", mean(0)),
            metric("true_splits_frac", "frac", mean(1)),
            metric("clv_mib", "MiB", mean(2)),
        ]
    };
    for m in &metrics {
        println!("{:<40} {:>16} {}", m.name, m.value, m.unit);
    }
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite: {}", m.name, m.value));
    }
    Ok(json_result(failed == 0, attempted, failed, &metrics))
}

fn main() -> ExitCode {
    let args = match check_env().and_then(|()| parse_args()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
