//! Unified capability negotiation.
//!
//! Five per-rank compute settings must be uniform across a world before
//! any engine is built: the likelihood-kernel backend, the subtree-repeat
//! compression setting, the collective reduction mode, the intra-rank
//! thread count, and the full-tree gradient mode. Each is a small
//! totally-ordered capability (a higher level is a superset of a lower
//! one), so heterogeneous worlds agree by everyone adopting the minimum
//! advertised level — the same protocol MPI codes use for feature
//! negotiation at startup.
//!
//! Historically each setting ran its own one-byte allgather, and only when
//! its choice was `Auto`. This module replaces those with ONE packed
//! exchange that always runs: every rank contributes one byte per
//! capability slot on a single `Control` allgather, forced slots simply
//! ignore the gathered minimum. Running the exchange unconditionally keeps
//! the collective sequence identical across ranks and across
//! configurations, which the trace rank-parity invariants and the
//! divergence sentinel both rely on.

use exa_comm::{CommCategory, Rank, ReduceChoice, ReduceKind};
use exa_phylo::engine::{
    GradientChoice, GradientMode, KernelChoice, KernelKind, RepeatsChoice, SiteRepeats,
    ThreadCount, ThreadsChoice,
};

/// A negotiable compute capability: a value with a stable label and a
/// monotone level, reconstructible from a negotiated minimum level.
pub trait Capability: Copy {
    /// Stable label (trace marks, health JSON, fingerprints).
    fn label(self) -> &'static str;
    /// Monotone capability level this value advertises.
    fn level(self) -> u8;
    /// The value a negotiated minimum level resolves to.
    fn from_level(level: u8) -> Self;
}

impl Capability for KernelKind {
    fn label(self) -> &'static str {
        KernelKind::label(&self)
    }
    fn level(self) -> u8 {
        self.capability_level()
    }
    fn from_level(level: u8) -> Self {
        KernelKind::from_capability_level(level)
    }
}

impl Capability for SiteRepeats {
    fn label(self) -> &'static str {
        SiteRepeats::label(&self)
    }
    fn level(self) -> u8 {
        self.capability_level()
    }
    fn from_level(level: u8) -> Self {
        SiteRepeats::from_capability_level(level)
    }
}

impl Capability for ReduceKind {
    fn label(self) -> &'static str {
        ReduceKind::label(self)
    }
    fn level(self) -> u8 {
        self.capability_level()
    }
    fn from_level(level: u8) -> Self {
        ReduceKind::from_capability_level(level)
    }
}

impl Capability for ThreadCount {
    fn label(self) -> &'static str {
        ThreadCount::label(self)
    }
    fn level(self) -> u8 {
        self.capability_level()
    }
    fn from_level(level: u8) -> Self {
        ThreadCount::from_capability_level(level)
    }
}

impl Capability for GradientMode {
    fn label(self) -> &'static str {
        GradientMode::label(&self)
    }
    fn level(self) -> u8 {
        self.capability_level()
    }
    fn from_level(level: u8) -> Self {
        GradientMode::from_capability_level(level)
    }
}

/// How one rank enters the exchange for one capability slot.
#[derive(Debug, Clone, Copy)]
pub enum Request<T: Capability> {
    /// Resolve locally (an explicit CLI choice or a per-rank test
    /// override). The forced level is still advertised — so the packed
    /// exchange stays uniform — but the gathered minimum is ignored.
    Forced(T),
    /// `Auto`: advertise this level, adopt the world minimum.
    Negotiate { advertise: u8 },
}

impl<T: Capability> Request<T> {
    fn advertised(&self) -> u8 {
        match self {
            Request::Forced(v) => v.level(),
            Request::Negotiate { advertise } => *advertise,
        }
    }

    fn resolve(&self, world_min: u8) -> Negotiated<T> {
        match self {
            Request::Forced(v) => Negotiated {
                value: *v,
                negotiated: false,
            },
            Request::Negotiate { .. } => Negotiated {
                value: T::from_level(world_min),
                negotiated: true,
            },
        }
    }
}

/// One resolved capability: the value plus whether it came out of the
/// exchange (`Auto`) or was forced locally.
#[derive(Debug, Clone, Copy)]
pub struct Negotiated<T> {
    pub value: T,
    pub negotiated: bool,
}

/// All five capability requests of one rank, in wire-slot order.
#[derive(Debug, Clone, Copy)]
pub struct CapabilityRequests {
    pub kernel: Request<KernelKind>,
    pub site_repeats: Request<SiteRepeats>,
    pub reduce: Request<ReduceKind>,
    pub threads: Request<ThreadCount>,
    pub gradient: Request<GradientMode>,
}

/// The negotiated compute configuration of one rank.
#[derive(Debug, Clone, Copy)]
pub struct Caps {
    pub kernel: Negotiated<KernelKind>,
    pub site_repeats: Negotiated<SiteRepeats>,
    pub reduce: Negotiated<ReduceKind>,
    pub threads: Negotiated<ThreadCount>,
    pub gradient: Negotiated<GradientMode>,
}

/// Build the kernel-slot request from a choice plus an optional per-rank
/// override table (test hook; indexed cyclically by rank id).
pub fn kernel_request(
    rank_id: usize,
    choice: KernelChoice,
    override_table: Option<&[KernelKind]>,
) -> Request<KernelKind> {
    if let Some(table) = override_table {
        return Request::Forced(table[rank_id % table.len().max(1)]);
    }
    match choice {
        KernelChoice::Scalar => Request::Forced(KernelKind::Scalar),
        KernelChoice::Simd => Request::Forced(KernelKind::Simd),
        KernelChoice::Auto => Request::Negotiate {
            advertise: choice.capability_level(),
        },
    }
}

/// Build the site-repeats-slot request, same protocol as
/// [`kernel_request`].
pub fn repeats_request(
    rank_id: usize,
    choice: RepeatsChoice,
    override_table: Option<&[SiteRepeats]>,
) -> Request<SiteRepeats> {
    if let Some(table) = override_table {
        return Request::Forced(table[rank_id % table.len().max(1)]);
    }
    match choice {
        RepeatsChoice::On => Request::Forced(SiteRepeats::On),
        RepeatsChoice::Off => Request::Forced(SiteRepeats::Off),
        RepeatsChoice::Auto => Request::Negotiate {
            advertise: choice.capability_level(),
        },
    }
}

/// Build the reduce-slot request, same protocol as [`kernel_request`].
pub fn reduce_request(
    rank_id: usize,
    choice: ReduceChoice,
    override_table: Option<&[ReduceKind]>,
) -> Request<ReduceKind> {
    if let Some(table) = override_table {
        return Request::Forced(table[rank_id % table.len().max(1)]);
    }
    match choice {
        ReduceChoice::Fast => Request::Forced(ReduceKind::Fast),
        ReduceChoice::Reproducible => Request::Forced(ReduceKind::Reproducible),
        ReduceChoice::Auto => Request::Negotiate {
            advertise: choice.advertised_level(),
        },
    }
}

/// Build the threads-slot request, same protocol as [`kernel_request`].
/// An explicit count forces; `auto` negotiates (and advertises 1 — threading
/// is strictly opt-in, so an auto world always resolves to serial).
pub fn threads_request(
    rank_id: usize,
    choice: ThreadsChoice,
    override_table: Option<&[ThreadCount]>,
) -> Request<ThreadCount> {
    if let Some(table) = override_table {
        return Request::Forced(table[rank_id % table.len().max(1)]);
    }
    match choice {
        ThreadsChoice::Count(n) => Request::Forced(n),
        ThreadsChoice::Auto => Request::Negotiate {
            advertise: choice.capability_level(),
        },
    }
}

/// Build the gradient-slot request, same protocol as [`kernel_request`].
/// `on`/`off` force; `auto` negotiates (advertising `on` — the sweep is pure
/// software, so a world of auto ranks resolves to the gradient pass).
pub fn gradient_request(
    rank_id: usize,
    choice: GradientChoice,
    override_table: Option<&[GradientMode]>,
) -> Request<GradientMode> {
    if let Some(table) = override_table {
        return Request::Forced(table[rank_id % table.len().max(1)]);
    }
    match choice {
        GradientChoice::On => Request::Forced(GradientMode::On),
        GradientChoice::Off => Request::Forced(GradientMode::Off),
        GradientChoice::Auto => Request::Negotiate {
            advertise: choice.capability_level(),
        },
    }
}

/// Run the one-time packed capability exchange: a single 5-byte `Control`
/// allgather, min per slot over every rank that contributed (a failed rank
/// leaves an empty slot, which the survivors skip — they still agree
/// because they all saw the same gather).
pub fn negotiate(rank: &Rank, req: &CapabilityRequests) -> Caps {
    let packet = vec![
        req.kernel.advertised(),
        req.site_repeats.advertised(),
        req.reduce.advertised(),
        req.threads.advertised(),
        req.gradient.advertised(),
    ];
    let n_slots = packet.len();
    let gathered = rank
        .allgather_bytes(packet.clone(), CommCategory::Control)
        .expect("capability negotiation cannot proceed after a rank failure");
    let min_of = |slot: usize| {
        gathered
            .iter()
            .filter(|b| b.len() == n_slots)
            .map(|b| b[slot])
            .min()
            .unwrap_or(packet[slot])
    };
    Caps {
        kernel: req.kernel.resolve(min_of(0)),
        site_repeats: req.site_repeats.resolve(min_of(1)),
        reduce: req.reduce.resolve(min_of(2)),
        threads: req.threads.resolve(min_of(3)),
        gradient: req.gradient.resolve(min_of(4)),
    }
}

/// Resolve the requests without any communication — what a single-rank
/// world would negotiate. Used by the fork-join scheme (whose workers take
/// the master's resolved settings via the command stream, not a gather)
/// and by daemon capability reporting.
pub fn resolve_local(req: &CapabilityRequests) -> Caps {
    Caps {
        kernel: req.kernel.resolve(req.kernel.advertised()),
        site_repeats: req.site_repeats.resolve(req.site_repeats.advertised()),
        reduce: req.reduce.resolve(req.reduce.advertised()),
        threads: req.threads.resolve(req.threads.advertised()),
        gradient: req.gradient.resolve(req.gradient.advertised()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exa_comm::World;

    fn auto_requests(rank_id: usize) -> CapabilityRequests {
        CapabilityRequests {
            kernel: kernel_request(rank_id, KernelChoice::Auto, None),
            site_repeats: repeats_request(rank_id, RepeatsChoice::Auto, None),
            reduce: reduce_request(rank_id, ReduceChoice::Auto, None),
            threads: threads_request(rank_id, ThreadsChoice::Auto, None),
            gradient: gradient_request(rank_id, GradientChoice::Auto, None),
        }
    }

    #[test]
    fn auto_world_agrees_on_local_resolution() {
        let caps: Vec<Caps> = World::run(4, |rank| {
            let req = auto_requests(rank.id());
            negotiate(&rank, &req)
        });
        let local = resolve_local(&auto_requests(0));
        for c in &caps {
            assert_eq!(c.kernel.value, local.kernel.value);
            assert_eq!(c.site_repeats.value, local.site_repeats.value);
            assert_eq!(c.reduce.value, ReduceKind::Reproducible);
            assert!(c.reduce.negotiated);
            assert_eq!(c.threads.value.get(), 1, "auto threads resolve serial");
            assert!(c.threads.negotiated);
            assert_eq!(c.gradient.value, GradientMode::On, "auto gradient is on");
            assert!(c.gradient.negotiated);
        }
    }

    #[test]
    fn min_capability_wins_across_heterogeneous_advertisements() {
        // One rank advertises a weaker kernel level; the whole world adopts
        // it. The weak rank forces (local resolution), the others negotiate
        // — forced slots keep their value, negotiated slots take the min.
        let caps: Vec<Caps> = World::run(3, |rank| {
            let req = CapabilityRequests {
                kernel: if rank.id() == 1 {
                    Request::Forced(KernelKind::Scalar)
                } else {
                    Request::Negotiate {
                        advertise: KernelKind::Simd.capability_level(),
                    }
                },
                site_repeats: repeats_request(rank.id(), RepeatsChoice::On, None),
                reduce: reduce_request(rank.id(), ReduceChoice::Fast, None),
                threads: threads_request(rank.id(), ThreadsChoice::Auto, None),
                gradient: gradient_request(rank.id(), GradientChoice::Auto, None),
            };
            negotiate(&rank, &req)
        });
        for (id, c) in caps.iter().enumerate() {
            assert_eq!(c.kernel.value, KernelKind::Scalar, "rank {id}");
            assert_eq!(c.kernel.negotiated, id != 1);
            assert_eq!(c.site_repeats.value, SiteRepeats::On);
            assert!(!c.site_repeats.negotiated);
            assert_eq!(c.reduce.value, ReduceKind::Fast);
        }
    }

    #[test]
    fn forced_slots_ignore_the_gathered_minimum() {
        let caps: Vec<Caps> = World::run(2, |rank| {
            let req = CapabilityRequests {
                // Rank 0 forces Simd while rank 1 advertises Scalar: the
                // forced rank keeps Simd (mixed worlds are a test hook; the
                // sentinel catches them).
                kernel: if rank.id() == 0 {
                    Request::Forced(KernelKind::Simd)
                } else {
                    Request::Forced(KernelKind::Scalar)
                },
                site_repeats: repeats_request(rank.id(), RepeatsChoice::Off, None),
                reduce: reduce_request(
                    rank.id(),
                    ReduceChoice::Fast,
                    Some(&[ReduceKind::Fast, ReduceKind::Reproducible]),
                ),
                threads: threads_request(rank.id(), ThreadsChoice::Auto, None),
                gradient: gradient_request(
                    rank.id(),
                    GradientChoice::Auto,
                    Some(&[GradientMode::On, GradientMode::Off]),
                ),
            };
            negotiate(&rank, &req)
        });
        assert_eq!(caps[0].kernel.value, KernelKind::Simd);
        assert_eq!(caps[1].kernel.value, KernelKind::Scalar);
        assert_eq!(caps[0].reduce.value, ReduceKind::Fast);
        assert_eq!(caps[1].reduce.value, ReduceKind::Reproducible);
        // Forced (override-table) gradient slots likewise keep their value.
        assert_eq!(caps[0].gradient.value, GradientMode::On);
        assert_eq!(caps[1].gradient.value, GradientMode::Off);
    }

    #[test]
    fn negotiated_thread_counts_adopt_the_world_minimum() {
        let caps: Vec<Caps> = World::run(3, |rank| {
            let req = CapabilityRequests {
                kernel: kernel_request(rank.id(), KernelChoice::Scalar, None),
                site_repeats: repeats_request(rank.id(), RepeatsChoice::Off, None),
                reduce: reduce_request(rank.id(), ReduceChoice::Fast, None),
                // Heterogeneous advertisements: 8, 2, 4 — negotiated slots
                // must all land on 2, the only width every rank can run.
                threads: Request::Negotiate {
                    advertise: ThreadCount::new([8, 2, 4][rank.id()]).capability_level(),
                },
                gradient: gradient_request(rank.id(), GradientChoice::Off, None),
            };
            negotiate(&rank, &req)
        });
        for (id, c) in caps.iter().enumerate() {
            assert_eq!(c.threads.value.get(), 2, "rank {id}");
            assert!(c.threads.negotiated);
        }
    }
}
