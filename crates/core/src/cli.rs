//! Command-line parsing for the `examl` binary, extracted from the binary
//! so it is unit-testable and reusable.
//!
//! [`CliConfig::parse`] consumes the argument list (without the program
//! name) and produces either a validated configuration or a [`CliError`]
//! whose rendering names the nearest valid flag for typos:
//!
//! ```text
//! unknown argument "--phlyip" (did you mean --phylip?)
//! ```

use crate::sentinel::{DivergenceFault, FaultComponent};
use exa_comm::{ReduceChoice, ReduceKind};
use exa_phylo::engine::{
    GradientChoice, GradientMode, KernelChoice, RepeatsChoice, ThreadCount, ThreadsChoice,
};
use exa_phylo::model::rates::RateModelKind;
use exa_search::KillSpec;
use std::path::PathBuf;

/// Every flag the `examl` binary accepts, in `usage()` order. Unknown-flag
/// suggestions are ranked against this list.
pub const FLAGS: &[&str] = &[
    "--phylip",
    "--fasta",
    "--binary-in",
    "--binary-out",
    "--partitions",
    "--ranks",
    "--model",
    "--kernel",
    "--site-repeats",
    "--reduce",
    "--threads",
    "--gradient",
    "--batch",
    "--resize-at",
    "-Q",
    "-M",
    "--seed",
    "--starting-tree",
    "--iterations",
    "--radius",
    "--epsilon",
    "--checkpoint-out",
    "--checkpoint-every",
    "--checkpoint-every-secs",
    "--checkpoint-keep",
    "--resume",
    "--inject-kill",
    "--out-tree",
    "--trace-out",
    "--bootstrap",
    "--verify-replicas",
    "--health-out",
    "--metrics-out",
    "--inject-divergence",
    "--reduce-override",
    "--threads-override",
    "--gradient-override",
    "--ascii",
    "--stats",
    "--quiet",
    "--help",
];

/// Parsed command line of the `examl` binary.
#[derive(Debug, Clone)]
pub struct CliConfig {
    pub phylip: Option<PathBuf>,
    pub fasta: Option<PathBuf>,
    pub binary_in: Option<PathBuf>,
    pub binary_out: Option<PathBuf>,
    pub partitions: Option<PathBuf>,
    pub ranks: usize,
    pub model: RateModelKind,
    pub kernel: KernelChoice,
    pub site_repeats: RepeatsChoice,
    /// Collective reduction mode: `fast` (order-sensitive f64 tree),
    /// `reproducible` (rank-count-invariant binned superaccumulator) or
    /// `auto` (negotiate; resolves to reproducible when all ranks can).
    pub reduce: ReduceChoice,
    /// Intra-rank worker threads: a count, or `auto` (negotiate the world
    /// minimum; resolves to 1 in the in-process world, where the ranks
    /// already multiplex one machine).
    pub threads: ThreadsChoice,
    /// Full-tree gradient route: `on` computes every edge's analytic
    /// first/second lnL derivative in one sweep with one collective, `off`
    /// with one reduction per edge, `auto` negotiates (resolves to `on`
    /// when all ranks can). Branch smoothing is per-edge and does not use
    /// it; bitwise result-neutral either way.
    pub gradient: GradientChoice,
    /// Pack small partitions into cache-sized kernel batches (`on`, the
    /// default) or run one dispatch per partition (`off`).
    pub batch: bool,
    /// Planned mid-run width changes, `ITER:WIDTH` pairs in iteration
    /// order. Requires `--reduce reproducible` (or `auto`).
    pub resize_at: Vec<(usize, usize)>,
    pub mps: bool,
    pub per_partition_branches: bool,
    pub seed: u64,
    pub starting_tree: String,
    pub iterations: usize,
    pub radius: usize,
    pub epsilon: f64,
    pub checkpoint_out: Option<PathBuf>,
    /// Iteration cadence as given on the command line. `None` means the
    /// flag was absent; [`CliConfig::resolved_checkpoint_every`] picks the
    /// effective cadence (1, or 0 when only a time cadence is armed).
    pub checkpoint_every: Option<usize>,
    pub checkpoint_every_secs: Option<f64>,
    pub checkpoint_keep: usize,
    pub resume: Option<PathBuf>,
    pub inject_kill: Option<KillSpec>,
    pub out_tree: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
    pub quiet: bool,
    pub bootstrap: usize,
    pub ascii: bool,
    pub stats_only: bool,
    pub verify_replicas: u64,
    pub health_out: Option<PathBuf>,
    /// Dump a Prometheus text-format snapshot of the process-global
    /// metrics registry to this file at exit (also enables the registry).
    pub metrics_out: Option<PathBuf>,
    pub inject_divergence: Option<DivergenceFault>,
    /// Fault injection: per-rank reduce modes overriding the negotiated
    /// one, `MODE[,MODE...]` cycled over the ranks — a scripted mixed
    /// world the sentinel must catch at its first fingerprint sync.
    pub reduce_override: Option<Vec<ReduceKind>>,
    /// Fault injection: per-rank thread counts overriding the negotiated
    /// one, `N[,N...]` cycled over the ranks. Threading is bitwise
    /// invisible, but a mixed table still trips the sentinel via the
    /// backend fingerprint — the uniform-capability invariant holds.
    pub threads_override: Option<Vec<ThreadCount>>,
    /// Fault injection: per-rank gradient modes overriding the negotiated
    /// one, `on|off[,on|off...]` cycled over the ranks. A mixed table
    /// desynchronizes the collective sequence — the sentinel must catch it
    /// at its first fingerprint sync.
    pub gradient_override: Option<Vec<GradientMode>>,
}

impl Default for CliConfig {
    fn default() -> CliConfig {
        CliConfig {
            phylip: None,
            fasta: None,
            binary_in: None,
            binary_out: None,
            partitions: None,
            ranks: 4,
            model: RateModelKind::Gamma,
            kernel: KernelChoice::from_env(),
            site_repeats: RepeatsChoice::from_env(),
            reduce: ReduceChoice::from_env(),
            threads: ThreadsChoice::from_env(),
            gradient: GradientChoice::from_env(),
            batch: true,
            resize_at: Vec::new(),
            mps: false,
            per_partition_branches: false,
            seed: 42,
            starting_tree: "parsimony".into(),
            iterations: 10,
            radius: 5,
            epsilon: 0.1,
            checkpoint_out: None,
            checkpoint_every: None,
            checkpoint_every_secs: None,
            checkpoint_keep: crate::checkpoint::KEEP_GENERATIONS,
            resume: None,
            inject_kill: None,
            out_tree: None,
            trace_out: None,
            quiet: false,
            bootstrap: 0,
            ascii: false,
            stats_only: false,
            verify_replicas: 0,
            health_out: None,
            metrics_out: None,
            inject_divergence: None,
            reduce_override: None,
            threads_override: None,
            gradient_override: None,
        }
    }
}

/// A rejected command line. `Display` renders the message the binary
/// prints before its usage text.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// `--help`/`-h`: not an error, but parsing stops.
    Help,
    /// A flag nobody recognizes; `suggestion` is the closest valid flag
    /// (edit distance), when one is close enough to be plausible.
    UnknownFlag {
        flag: String,
        suggestion: Option<&'static str>,
    },
    /// A value-taking flag at the end of the line.
    MissingValue { flag: &'static str },
    /// A value that does not parse.
    BadValue {
        flag: &'static str,
        value: String,
        expected: &'static str,
    },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Help => write!(f, "help requested"),
            CliError::UnknownFlag { flag, suggestion } => {
                write!(f, "unknown argument {flag:?}")?;
                if let Some(s) = suggestion {
                    write!(f, " (did you mean {s}?)")?;
                }
                Ok(())
            }
            CliError::MissingValue { flag } => write!(f, "missing value for {flag}"),
            CliError::BadValue {
                flag,
                value,
                expected,
            } => {
                write!(
                    f,
                    "invalid value {value:?} for {flag} (expected {expected})"
                )
            }
        }
    }
}

impl std::error::Error for CliError {}

/// Levenshtein edit distance — small inputs only (flag names), so the
/// O(n·m) dynamic program is plenty.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The valid flag closest to `flag`, when it is close enough (edit distance
/// at most half the flag's length) to plausibly be a typo.
pub fn nearest_flag(flag: &str) -> Option<&'static str> {
    FLAGS
        .iter()
        .map(|&f| (edit_distance(flag, f), f))
        .min()
        .filter(|&(d, f)| d <= f.len().div_ceil(2))
        .map(|(_, f)| f)
}

impl CliConfig {
    /// Parse an argument list (without the program name).
    pub fn parse<I, S>(args: I) -> Result<CliConfig, CliError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut cfg = CliConfig::default();
        let mut it = args.into_iter().map(Into::into);
        while let Some(flag) = it.next() {
            let mut value = |name: &'static str| -> Result<String, CliError> {
                it.next().ok_or(CliError::MissingValue { flag: name })
            };
            fn num<T: std::str::FromStr>(
                flag: &'static str,
                value: String,
                expected: &'static str,
            ) -> Result<T, CliError> {
                value.parse().map_err(|_| CliError::BadValue {
                    flag,
                    value,
                    expected,
                })
            }
            match flag.as_str() {
                "--phylip" => cfg.phylip = Some(value("--phylip")?.into()),
                "--fasta" => cfg.fasta = Some(value("--fasta")?.into()),
                "--binary-in" => cfg.binary_in = Some(value("--binary-in")?.into()),
                "--binary-out" => cfg.binary_out = Some(value("--binary-out")?.into()),
                "--partitions" => cfg.partitions = Some(value("--partitions")?.into()),
                "--ranks" => cfg.ranks = num("--ranks", value("--ranks")?, "a count")?,
                "--model" => {
                    let v = value("--model")?;
                    cfg.model = match v.to_uppercase().as_str() {
                        "GAMMA" => RateModelKind::Gamma,
                        "PSR" | "CAT" => RateModelKind::Psr,
                        _ => {
                            return Err(CliError::BadValue {
                                flag: "--model",
                                value: v,
                                expected: "GAMMA or PSR",
                            })
                        }
                    }
                }
                "--kernel" => {
                    let v = value("--kernel")?;
                    cfg.kernel = KernelChoice::parse(&v).ok_or(CliError::BadValue {
                        flag: "--kernel",
                        value: v,
                        expected: "scalar, simd or auto",
                    })?;
                }
                "--site-repeats" => {
                    let v = value("--site-repeats")?;
                    cfg.site_repeats = RepeatsChoice::parse(&v).ok_or(CliError::BadValue {
                        flag: "--site-repeats",
                        value: v,
                        expected: "on, off or auto",
                    })?;
                }
                "--reduce" => {
                    let v = value("--reduce")?;
                    cfg.reduce = ReduceChoice::parse(&v).ok_or(CliError::BadValue {
                        flag: "--reduce",
                        value: v,
                        expected: "fast, reproducible or auto",
                    })?;
                }
                "--threads" => {
                    let v = value("--threads")?;
                    cfg.threads = ThreadsChoice::parse(&v).ok_or(CliError::BadValue {
                        flag: "--threads",
                        value: v,
                        expected: "a count or auto",
                    })?;
                }
                "--gradient" => {
                    let v = value("--gradient")?;
                    cfg.gradient = GradientChoice::parse(&v).ok_or(CliError::BadValue {
                        flag: "--gradient",
                        value: v,
                        expected: "on, off or auto",
                    })?;
                }
                "--batch" => {
                    let v = value("--batch")?;
                    cfg.batch = match v.as_str() {
                        "on" => true,
                        "off" => false,
                        _ => {
                            return Err(CliError::BadValue {
                                flag: "--batch",
                                value: v,
                                expected: "on or off",
                            })
                        }
                    };
                }
                "--resize-at" => {
                    let v = value("--resize-at")?;
                    cfg.resize_at = parse_resize_plan(&v).ok_or(CliError::BadValue {
                        flag: "--resize-at",
                        value: v,
                        expected: "ITER:WIDTH[,ITER:WIDTH...]",
                    })?;
                }
                "-Q" => cfg.mps = true,
                "-M" => cfg.per_partition_branches = true,
                "--seed" => cfg.seed = num("--seed", value("--seed")?, "an integer")?,
                "--starting-tree" => cfg.starting_tree = value("--starting-tree")?,
                "--iterations" => {
                    cfg.iterations = num("--iterations", value("--iterations")?, "a count")?
                }
                "--radius" => cfg.radius = num("--radius", value("--radius")?, "a count")?,
                "--epsilon" => cfg.epsilon = num("--epsilon", value("--epsilon")?, "a number")?,
                "--checkpoint-out" => cfg.checkpoint_out = Some(value("--checkpoint-out")?.into()),
                "--checkpoint-every" => {
                    cfg.checkpoint_every = Some(num(
                        "--checkpoint-every",
                        value("--checkpoint-every")?,
                        "a count",
                    )?)
                }
                "--checkpoint-every-secs" => {
                    let secs: f64 = num(
                        "--checkpoint-every-secs",
                        value("--checkpoint-every-secs")?,
                        "seconds",
                    )?;
                    if !secs.is_finite() || secs <= 0.0 {
                        return Err(CliError::BadValue {
                            flag: "--checkpoint-every-secs",
                            value: secs.to_string(),
                            expected: "seconds",
                        });
                    }
                    cfg.checkpoint_every_secs = Some(secs);
                }
                "--checkpoint-keep" => {
                    let keep: usize = num(
                        "--checkpoint-keep",
                        value("--checkpoint-keep")?,
                        "a count of at least 1",
                    )?;
                    if keep == 0 {
                        return Err(CliError::BadValue {
                            flag: "--checkpoint-keep",
                            value: keep.to_string(),
                            expected: "a count of at least 1",
                        });
                    }
                    cfg.checkpoint_keep = keep;
                }
                "--resume" => cfg.resume = Some(value("--resume")?.into()),
                "--inject-kill" => {
                    let v = value("--inject-kill")?;
                    cfg.inject_kill = Some(parse_kill_spec(&v).ok_or(CliError::BadValue {
                        flag: "--inject-kill",
                        value: v,
                        expected: "AFTER_CKPT or AFTER_CKPT:RANK",
                    })?);
                }
                "--out-tree" => cfg.out_tree = Some(value("--out-tree")?.into()),
                "--trace-out" => cfg.trace_out = Some(value("--trace-out")?.into()),
                "--bootstrap" => {
                    cfg.bootstrap = num("--bootstrap", value("--bootstrap")?, "a count")?
                }
                "--verify-replicas" => {
                    cfg.verify_replicas = num(
                        "--verify-replicas",
                        value("--verify-replicas")?,
                        "a cadence",
                    )?
                }
                "--health-out" => cfg.health_out = Some(value("--health-out")?.into()),
                "--metrics-out" => cfg.metrics_out = Some(value("--metrics-out")?.into()),
                "--inject-divergence" => {
                    let v = value("--inject-divergence")?;
                    cfg.inject_divergence =
                        Some(parse_divergence_fault(&v).ok_or(CliError::BadValue {
                            flag: "--inject-divergence",
                            value: v,
                            expected: "RANK:COLLECTIVE:alpha|blen",
                        })?);
                }
                "--reduce-override" => {
                    let v = value("--reduce-override")?;
                    cfg.reduce_override =
                        Some(parse_reduce_override(&v).ok_or(CliError::BadValue {
                            flag: "--reduce-override",
                            value: v,
                            expected: "fast|reproducible[,fast|reproducible...]",
                        })?);
                }
                "--threads-override" => {
                    let v = value("--threads-override")?;
                    cfg.threads_override =
                        Some(parse_threads_override(&v).ok_or(CliError::BadValue {
                            flag: "--threads-override",
                            value: v,
                            expected: "N[,N...]",
                        })?);
                }
                "--gradient-override" => {
                    let v = value("--gradient-override")?;
                    cfg.gradient_override =
                        Some(parse_gradient_override(&v).ok_or(CliError::BadValue {
                            flag: "--gradient-override",
                            value: v,
                            expected: "on|off[,on|off...]",
                        })?);
                }
                "--ascii" => cfg.ascii = true,
                "--stats" => cfg.stats_only = true,
                "--quiet" => cfg.quiet = true,
                "--help" | "-h" => return Err(CliError::Help),
                other => {
                    return Err(CliError::UnknownFlag {
                        flag: other.to_string(),
                        suggestion: nearest_flag(other),
                    })
                }
            }
        }
        Ok(cfg)
    }

    /// The effective iteration cadence for checkpoint commits.
    ///
    /// An explicit `--checkpoint-every N` always wins (including `0`, which
    /// disables the iteration cadence). When the flag is absent the cadence
    /// defaults to every iteration — unless only `--checkpoint-every-secs`
    /// was given, in which case the time cadence alone drives commits.
    pub fn resolved_checkpoint_every(&self) -> usize {
        match self.checkpoint_every {
            Some(n) => n,
            None if self.checkpoint_every_secs.is_some() => 0,
            None => 1,
        }
    }
}

/// Parse `AFTER_CKPT` or `AFTER_CKPT:RANK` into a [`KillSpec`]: die after
/// `AFTER_CKPT` committed checkpoint generations — every rank at once, or
/// just `RANK` (exercising the single-failure recovery path before the
/// restart).
pub fn parse_kill_spec(spec: &str) -> Option<KillSpec> {
    let mut parts = spec.splitn(2, ':');
    let after_checkpoints = parts.next()?.parse().ok()?;
    let rank = match parts.next() {
        Some(r) => Some(r.parse().ok()?),
        None => None,
    };
    Some(KillSpec {
        after_checkpoints,
        rank,
    })
}

/// Parse `ITER:WIDTH[,ITER:WIDTH...]` into a resize plan. Pairs must be in
/// strictly increasing iteration order and widths must be at least 1; the
/// world-size upper bound is checked later, once the run knows its world.
pub fn parse_resize_plan(spec: &str) -> Option<Vec<(usize, usize)>> {
    let mut plan = Vec::new();
    for pair in spec.split(',') {
        let (iter, width) = pair.split_once(':')?;
        let iter: usize = iter.parse().ok()?;
        let width: usize = width.parse().ok()?;
        if width == 0 {
            return None;
        }
        if let Some(&(last, _)) = plan.last() {
            if iter <= last {
                return None;
            }
        }
        plan.push((iter, width));
    }
    if plan.is_empty() {
        return None;
    }
    Some(plan)
}

/// Parse `MODE[,MODE...]` (`fast` / `reproducible`) into a per-rank
/// reduce-mode override table.
pub fn parse_reduce_override(spec: &str) -> Option<Vec<ReduceKind>> {
    spec.split(',')
        .map(|m| match m {
            "fast" => Some(ReduceKind::Fast),
            "reproducible" => Some(ReduceKind::Reproducible),
            _ => None,
        })
        .collect()
}

/// Parse `N[,N...]` into a per-rank thread-count override table.
pub fn parse_threads_override(spec: &str) -> Option<Vec<ThreadCount>> {
    spec.split(',').map(ThreadCount::parse).collect()
}

/// Parse `on|off[,on|off...]` into a per-rank gradient-mode override table.
pub fn parse_gradient_override(spec: &str) -> Option<Vec<GradientMode>> {
    spec.split(',')
        .map(|m| match m {
            "on" => Some(GradientMode::On),
            "off" => Some(GradientMode::Off),
            _ => None,
        })
        .collect()
}

/// Parse `RANK:COLLECTIVE:alpha|blen` into a [`DivergenceFault`].
pub fn parse_divergence_fault(spec: &str) -> Option<DivergenceFault> {
    let mut parts = spec.splitn(3, ':');
    let rank = parts.next()?.parse().ok()?;
    let after_collectives = parts.next()?.parse().ok()?;
    let component = FaultComponent::parse(parts.next()?)?;
    Some(DivergenceFault {
        rank,
        after_collectives,
        component,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliConfig, CliError> {
        CliConfig::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_match_historical_cli() {
        let c = parse(&[]).unwrap();
        assert_eq!(c.ranks, 4);
        assert_eq!(c.model, RateModelKind::Gamma);
        assert_eq!(c.starting_tree, "parsimony");
        assert_eq!(c.iterations, 10);
        assert_eq!(c.radius, 5);
        assert!((c.epsilon - 0.1).abs() < 1e-12);
        assert_eq!(c.verify_replicas, 0);
        assert!(c.resize_at.is_empty());
        assert!(!c.quiet && !c.ascii && !c.stats_only);
    }

    #[test]
    fn full_flag_set_parses() {
        let c = parse(&[
            "--phylip",
            "a.phy",
            "--partitions",
            "p.txt",
            "--ranks",
            "8",
            "--model",
            "psr",
            "--kernel",
            "simd",
            "--site-repeats",
            "off",
            "--reduce",
            "reproducible",
            "--threads",
            "2",
            "--gradient",
            "on",
            "--batch",
            "off",
            "--threads-override",
            "2,4",
            "--gradient-override",
            "on,off",
            "--resize-at",
            "2:1,5:4",
            "-Q",
            "-M",
            "--seed",
            "7",
            "--starting-tree",
            "random",
            "--iterations",
            "3",
            "--radius",
            "2",
            "--epsilon",
            "0.5",
            "--verify-replicas",
            "16",
            "--inject-divergence",
            "1:10:alpha",
            "--reduce-override",
            "reproducible,fast",
            "--metrics-out",
            "metrics.prom",
            "--quiet",
        ])
        .unwrap();
        assert_eq!(c.phylip.as_deref(), Some(std::path::Path::new("a.phy")));
        assert_eq!(c.ranks, 8);
        assert_eq!(c.model, RateModelKind::Psr);
        assert_eq!(c.kernel, KernelChoice::Simd);
        assert_eq!(c.site_repeats, RepeatsChoice::Off);
        assert_eq!(c.reduce, ReduceChoice::Reproducible);
        assert_eq!(c.threads, ThreadsChoice::Count(ThreadCount::new(2)));
        assert_eq!(c.gradient, GradientChoice::On);
        assert_eq!(
            c.gradient_override,
            Some(vec![GradientMode::On, GradientMode::Off])
        );
        assert!(!c.batch);
        assert_eq!(
            c.threads_override,
            Some(vec![ThreadCount::new(2), ThreadCount::new(4)])
        );
        assert_eq!(c.resize_at, vec![(2, 1), (5, 4)]);
        assert!(c.mps && c.per_partition_branches && c.quiet);
        assert_eq!(c.seed, 7);
        assert_eq!(c.verify_replicas, 16);
        let fault = c.inject_divergence.unwrap();
        assert_eq!(fault.rank, 1);
        assert_eq!(fault.after_collectives, 10);
        assert_eq!(fault.component, FaultComponent::Alpha);
        assert_eq!(
            c.reduce_override,
            Some(vec![ReduceKind::Reproducible, ReduceKind::Fast])
        );
        assert_eq!(
            c.metrics_out.as_deref(),
            Some(std::path::Path::new("metrics.prom"))
        );
    }

    #[test]
    fn checkpoint_and_kill_flags_parse() {
        let c = parse(&[
            "--checkpoint-out",
            "ckpt/",
            "--checkpoint-every",
            "5",
            "--resume",
            "ckpt/",
            "--inject-kill",
            "2",
        ])
        .unwrap();
        assert_eq!(
            c.checkpoint_out.as_deref(),
            Some(std::path::Path::new("ckpt/"))
        );
        assert_eq!(c.checkpoint_every, Some(5));
        assert_eq!(c.resolved_checkpoint_every(), 5);
        assert_eq!(c.resume.as_deref(), Some(std::path::Path::new("ckpt/")));
        assert_eq!(
            c.inject_kill,
            Some(KillSpec {
                after_checkpoints: 2,
                rank: None
            })
        );

        let c = parse(&["--inject-kill", "3:1"]).unwrap();
        assert_eq!(
            c.inject_kill,
            Some(KillSpec {
                after_checkpoints: 3,
                rank: Some(1)
            })
        );

        for bad in ["", "x", "1:", "1:x", "1:2:3"] {
            let err = parse(&["--inject-kill", bad]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CliError::BadValue {
                        flag: "--inject-kill",
                        ..
                    }
                ),
                "{bad:?} should be rejected, got {err:?}"
            );
        }
    }

    #[test]
    fn checkpoint_cadence_and_retention_flags() {
        // Absent flags: commit every iteration, keep the default window.
        let c = parse(&[]).unwrap();
        assert_eq!(c.checkpoint_every, None);
        assert_eq!(c.resolved_checkpoint_every(), 1);
        assert_eq!(c.checkpoint_keep, crate::checkpoint::KEEP_GENERATIONS);

        // A time cadence alone turns the iteration cadence off.
        let c = parse(&["--checkpoint-every-secs", "2.5"]).unwrap();
        assert_eq!(c.checkpoint_every_secs, Some(2.5));
        assert_eq!(c.resolved_checkpoint_every(), 0);

        // Both cadences can be armed together.
        let c = parse(&[
            "--checkpoint-every",
            "4",
            "--checkpoint-every-secs",
            "10",
            "--checkpoint-keep",
            "7",
        ])
        .unwrap();
        assert_eq!(c.resolved_checkpoint_every(), 4);
        assert_eq!(c.checkpoint_every_secs, Some(10.0));
        assert_eq!(c.checkpoint_keep, 7);

        // An explicit zero disables the iteration cadence outright.
        let c = parse(&["--checkpoint-every", "0"]).unwrap();
        assert_eq!(c.resolved_checkpoint_every(), 0);

        for (flag, bad) in [
            ("--checkpoint-every-secs", "0"),
            ("--checkpoint-every-secs", "-1"),
            ("--checkpoint-every-secs", "inf"),
            ("--checkpoint-keep", "0"),
        ] {
            let err = parse(&[flag, bad]).unwrap_err();
            assert!(
                matches!(err, CliError::BadValue { .. }),
                "{flag} {bad:?} should be rejected, got {err:?}"
            );
        }
    }

    #[test]
    fn unknown_flag_names_the_nearest_valid_one() {
        let err = parse(&["--phlyip", "a.phy"]).unwrap_err();
        let CliError::UnknownFlag { flag, suggestion } = &err else {
            panic!("expected UnknownFlag, got {err:?}");
        };
        assert_eq!(flag, "--phlyip");
        assert_eq!(*suggestion, Some("--phylip"));
        assert!(err.to_string().contains("did you mean --phylip?"), "{err}");

        let err = parse(&["--kernal", "simd"]).unwrap_err();
        assert!(err.to_string().contains("did you mean --kernel?"), "{err}");

        // Gibberish gets no far-fetched suggestion.
        let err = parse(&["--zzzzzzzzzzzzzzzzzz"]).unwrap_err();
        let CliError::UnknownFlag { suggestion, .. } = err else {
            panic!()
        };
        assert_eq!(suggestion, None);
    }

    #[test]
    fn missing_and_bad_values_are_structured() {
        assert_eq!(
            parse(&["--ranks"]).unwrap_err(),
            CliError::MissingValue { flag: "--ranks" }
        );
        let err = parse(&["--ranks", "many"]).unwrap_err();
        assert!(matches!(
            err,
            CliError::BadValue {
                flag: "--ranks",
                ..
            }
        ));
        let err = parse(&["--kernel", "avx512"]).unwrap_err();
        assert!(err.to_string().contains("scalar, simd or auto"), "{err}");
        let err = parse(&["--site-repeats", "maybe"]).unwrap_err();
        assert!(err.to_string().contains("on, off or auto"), "{err}");
        let err = parse(&["--model", "JC"]).unwrap_err();
        assert!(err.to_string().contains("GAMMA or PSR"), "{err}");
        let err = parse(&["--reduce", "exact"]).unwrap_err();
        assert!(
            err.to_string().contains("fast, reproducible or auto"),
            "{err}"
        );
        let err = parse(&["--threads", "lots"]).unwrap_err();
        assert!(err.to_string().contains("a count or auto"), "{err}");
        let err = parse(&["--batch", "maybe"]).unwrap_err();
        assert!(err.to_string().contains("on or off"), "{err}");
        let err = parse(&["--gradient", "maybe"]).unwrap_err();
        assert!(err.to_string().contains("on, off or auto"), "{err}");
        for bad in ["", "auto", "on,", "on,maybe"] {
            let err = parse(&["--gradient-override", bad]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CliError::BadValue {
                        flag: "--gradient-override",
                        ..
                    }
                ),
                "{bad:?} should be rejected, got {err:?}"
            );
        }
        for bad in ["", "0", "2,", "2,x"] {
            let err = parse(&["--threads-override", bad]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CliError::BadValue {
                        flag: "--threads-override",
                        ..
                    }
                ),
                "{bad:?} should be rejected, got {err:?}"
            );
        }
        for bad in ["", "exact", "fast,", "fast,auto"] {
            let err = parse(&["--reduce-override", bad]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CliError::BadValue {
                        flag: "--reduce-override",
                        ..
                    }
                ),
                "{bad:?} should be rejected, got {err:?}"
            );
        }
        // Out-of-order, zero-width and malformed plans are all rejected.
        for bad in ["", "3", "3:", "3:0", "5:2,3:4", "3:2,3:1", "x:2"] {
            let err = parse(&["--resize-at", bad]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CliError::BadValue {
                        flag: "--resize-at",
                        ..
                    }
                ),
                "{bad:?} should be rejected, got {err:?}"
            );
        }
        assert_eq!(parse(&["--help"]).unwrap_err(), CliError::Help);
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "abd"), 1);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("--phlyip", "--phylip"), 2);
    }
}
