//! The discrete-event fleet simulator: months of Palomar-scale
//! operation as one event script.
//!
//! [`GoodputSim`] answers one closed-form question (capacity under
//! i.i.d. failures). [`FleetSim`] generalizes it into a single
//! event-driven simulation of a full fleet — the 4096-chip machine of
//! the paper — running simulated months of operation, which also covers
//! the §2.5 scheduling benefit (queueing under the Table 2 job mix):
//!
//! * **Job arrivals/departures**: Poisson arrivals drawn from the
//!   Table 2 slice mix ([`SliceMix::table2`]), exponential durations,
//!   FIFO queues per priority tier.
//! * **Host failures and repairs**: every CPU host is an independent
//!   alternating-renewal process — exponential up-times (MTBF),
//!   exponential repair times optionally truncated by a repair SLO
//!   (MTTR, [`tpu_spec::FleetSpec`]) — initialized *in its stationary
//!   distribution*, so time averages match the closed-form
//!   steady state from t = 0 with no warm-up cut.
//! * **OCS reconfiguration windows**: on the plugboard arm each
//!   placement spends the spec's `reconfig_ms` programming circuits
//!   before compute starts.
//! * **Priority tiers with preemption**: production jobs may evict the
//!   newest best-effort jobs when blocked; evicted jobs re-queue at
//!   the front of their tier with their remaining work (checkpoint
//!   semantics).
//!
//! Host health lives in one [`HostHealth`] record per run, the record
//! every fabric keeps: a unit (block or island) is healthy while all of
//! its hosts are up, and the record's unit health words are what the
//! arms and the capacity probe read. The static arm packs contiguous
//! boxes through the production [`StaticCluster::allocate`] on its own
//! cluster, which is told of every host failure and repair. The two
//! reconfigurable arms admit on occupancy words, by the rules
//! `Supercomputer::submit` applies to the model's machine: the OCS
//! plugboard takes the lowest free healthy blocks through
//! [`tpu_ocs::pick_lowest_blocks`], the pick `Fabric::allocate` makes,
//! and the switched-island fabric admits a job while its chips fit in
//! the healthy chips ([`tpu_ocs::healthy_chips`]) less the busy ones.
//! The `word_admission` unit test (`fleet/tests/word_admission.rs`)
//! runs both against `Supercomputer::submit`/`finish` step by step.
//!
//! # Determinism
//!
//! The engine handles events in `(time bits, kind rank, sequence)`
//! order — repairs before failures before job ends before arrivals at
//! equal timestamps, insertion order as the final tie-break — with two
//! SplitMix64-derived RNG streams (job stream, health stream) per run.
//! The events come from three sources merged on that key: the one
//! pending arrival (the job drawn ahead), a heap of job ends and a heap
//! of host failures and repairs. The sources hold different ranks, so
//! the merge is the order of a single heap fed the same events.
//! [`FleetSim::run_trials`] reuses the [`crate::trials`] chunk
//! seeding, so replicated runs are bit-identical for any worker-thread
//! count (DESIGN.md §12).
//!
//! # Memory and speed (DESIGN.md §15)
//!
//! The job stream is drawn lazily — one job ahead of the newest
//! arrival — and after that a job lives only in its queue entry or its
//! running entry. Job `k` owns outputs `4k` to `4k + 3` of the jobs
//! stream (gap, Table 2 row, duration, tier), so an entry names the
//! job's index and row, the row's request comes from a table built per
//! run, and the tier is the queue the entry waits in. A job that has
//! not run yet waits in a 16-byte entry, and its duration is redrawn
//! from its counter when it is placed; an evicted job's remainder waits
//! on a per-tier stack served first, which is where a re-queue at the
//! front of the FIFO would put it. On the static arm of a saturated
//! month nearly every arrival is still queued at the horizon, so the
//! entry size sets the run's peak memory. Running entries sit in a
//! `Vec` in slot (placement) order and drop when the job ends or is
//! evicted: a job end binary-searches its slot, and the newest-first
//! evictions walk the `Vec` from the back. Nearly every event is an
//! arrival or a job end, so the pending arrival is never pushed and
//! job ends sift through a heap of their own, not past the clocks of
//! every host. Whether the arm can ever offer a Table 2 row is decided
//! once per run, beside the row's request. An arriving job runs a
//! scheduling pass only when it becomes the head of its tier queue:
//! behind a head that was just refused, a pass could not place
//! anything. A running plugboard job holds its blocks as a mask, so
//! admission, release and failure kills on the reconfigurable arms are
//! a few word operations, with no machine cloned and nothing allocated
//! per placement. The `fleet_golden` fixtures pin the traces of every
//! committed spec.
//!
//! # Proven against the closed forms
//!
//! The derived metrics are cross-checked against the models they
//! generalize (the `fleet_equivalence` integration test): measured host
//! availability converges to [`tpu_spec::FleetSpec::steady_availability`]
//! (renewal-reward), and measured goodput — a capacity probe through
//! the *identical* placement counts [`GoodputSim`] uses, on the model's
//! pristine arms, fed the DES's live block health as health words —
//! converges to [`GoodputSim::goodput`] at the same availability.
//!
//! [`GoodputSim`]: crate::GoodputSim
//! [`GoodputSim::goodput`]: crate::GoodputSim::goodput

use crate::goodput::{place_reconfigurable_words, slice_geometry};
use crate::model::PlannerModel;
use crate::slice_mix::SliceMix;
use crate::trials::{chunk_seed, run_chunks};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::sync::Arc;
use tpu_core::{FirstFitPlan, StaticCluster};
use tpu_ocs::{healthy_chips, pick_lowest_blocks, HostHealth};
use tpu_spec::{consts, FabricKind, FleetSpec, MachineSpec};
use tpu_topology::SliceShape;

/// Stream discriminator for the job-arrival RNG.
const STREAM_JOBS: u64 = 1;
/// Stream discriminator for the host-health RNG.
const STREAM_HEALTH: u64 = 2;
/// Share of arriving jobs in the production tier; the rest are
/// best-effort.
const PRODUCTION_SHARE: f64 = 0.25;

/// The discrete-event fleet simulator (see the module docs).
///
/// The machine lives in an [`Arc`]-shared [`PlannerModel`]: a static
/// run clones the model's pristine cluster, and a reconfigurable run
/// needs only occupancy words, so replicated trials and service queries
/// pay fabric construction once per machine.
#[derive(Debug, Clone)]
pub struct FleetSim {
    model: Arc<PlannerModel>,
    horizon_s: f64,
    seed: u64,
    profile: FleetSpec,
    probe_slice_chips: u64,
    preemption: bool,
    record_events: bool,
    threads: usize,
}

impl FleetSim {
    /// A fleet simulation of the machine a spec describes, over
    /// `horizon_s` seconds of simulated operation, with the spec's own
    /// fleet-operations profile ([`MachineSpec::fleet_profile`]).
    ///
    /// The goodput probe slice defaults to a quarter of the machine
    /// (rounded down to whole blocks) — the Figure 4 caption's headline
    /// grid point.
    pub fn for_spec(spec: &MachineSpec, horizon_s: f64, seed: u64) -> FleetSim {
        FleetSim::for_model(Arc::new(PlannerModel::for_spec(spec)), horizon_s, seed)
    }

    /// A fleet simulation over an already-shared [`PlannerModel`] — no
    /// spec clone, no fabric construction.
    pub fn for_model(model: Arc<PlannerModel>, horizon_s: f64, seed: u64) -> FleetSim {
        let quarter_blocks = (model.blocks() / 4).max(1);
        FleetSim {
            profile: model.spec().fleet_profile(),
            probe_slice_chips: u64::from(quarter_blocks) * u64::from(model.chips_per_block()),
            model,
            horizon_s,
            seed,
            preemption: true,
            record_events: false,
            threads: 0,
        }
    }

    /// Overrides the fleet-operations profile (offered load, MTBF/MTTR,
    /// repair SLO). An infinite `arrival_interval_s` disables the job
    /// stream entirely — the pure failure/repair process the
    /// equivalence tests measure.
    #[must_use]
    pub fn with_profile(mut self, profile: FleetSpec) -> FleetSim {
        self.profile = profile;
        self
    }

    /// Sets the goodput probe slice size in chips (a positive multiple
    /// of the block/island size within the machine, validated at run).
    #[must_use]
    pub fn with_probe_slice(mut self, chips: u64) -> FleetSim {
        self.probe_slice_chips = chips;
        self
    }

    /// Enables or disables production-over-best-effort preemption
    /// (enabled by default).
    #[must_use]
    // tpu-lint: allow(no-caller) -- fleet_golden pins the nopreempt traces through it
    pub fn with_preemption(mut self, on: bool) -> FleetSim {
        self.preemption = on;
        self
    }

    /// Records a [`TraceEvent`] per engine action into
    /// [`FleetTrace::log`] (off by default — a month of the v4 fleet is
    /// millions of events).
    #[must_use]
    // tpu-lint: allow(no-caller) -- fleet_golden records the event log it replays through it
    pub fn with_recording(mut self, on: bool) -> FleetSim {
        self.record_events = on;
        self
    }

    /// Sets the worker-thread count for [`FleetSim::run_trials`]
    /// (0 = one per available CPU, the default). The aggregate is
    /// bit-identical for every setting.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> FleetSim {
        self.threads = threads;
        self
    }

    /// Total chips in the machine (whole blocks/islands).
    pub fn total_chips(&self) -> u64 {
        self.model.total_chips()
    }

    /// Total CPU hosts.
    pub fn total_hosts(&self) -> u64 {
        self.model.total_hosts()
    }

    /// Runs one simulation on a fleet-fabric arm and returns its trace.
    ///
    /// [`FabricKind::Static`] places contiguous boxes on the core
    /// [`StaticCluster`]; any other kind admits on words by the rules of
    /// the machine's reconfigurable fabric (the OCS plugboard for torus
    /// specs, the switched island cluster for `torus_dims == 0` specs).
    ///
    /// # Panics
    ///
    /// Panics if the probe slice is not a positive multiple of the
    /// block size within the machine, if the profile is degenerate
    /// (non-positive rates), or if [`FabricKind::Switched`] is
    /// requested for a torus spec (as in [`crate::GoodputSim::goodput`]).
    pub fn run(&self, fabric: FabricKind) -> FleetTrace {
        self.run_seeded(fabric, self.seed)
    }

    /// Runs `trials` independent replications — trial `t` derives its
    /// engine seed from `(seed, t)` — across worker threads and returns
    /// the field-wise mean of their [`FleetMetrics`], reduced in trial
    /// order (bit-identical for any thread count).
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`, plus everything [`FleetSim::run`]
    /// panics for.
    pub fn run_trials(&self, fabric: FabricKind, trials: u32) -> FleetMetrics {
        assert!(trials > 0, "at least one trial");
        let per_trial = run_chunks(
            trials as usize,
            self.threads,
            || (),
            |t, ()| {
                self.run_seeded(fabric, chunk_seed(self.seed, t as u64))
                    .metrics()
            },
        );
        let n = f64::from(trials);
        let mean = |f: fn(&FleetMetrics) -> f64| per_trial.iter().map(f).sum::<f64>() / n;
        FleetMetrics {
            availability: mean(|m| m.availability),
            goodput: mean(|m| m.goodput),
            fragmentation: mean(|m| m.fragmentation),
            utilization: mean(|m| m.utilization),
            reconfig_overhead: mean(|m| m.reconfig_overhead),
            mean_wait_s: mean(|m| m.mean_wait_s),
            mean_wait_production_s: mean(|m| m.mean_wait_production_s),
            mean_wait_best_effort_s: mean(|m| m.mean_wait_best_effort_s),
            completions: mean(|m| m.completions),
            preemptions: mean(|m| m.preemptions),
            events: mean(|m| m.events),
        }
    }

    fn run_seeded(&self, fabric: FabricKind, seed: u64) -> FleetTrace {
        assert!(
            fabric != FabricKind::Switched || self.model.spec().torus_dims == 0,
            "FabricKind::Switched is only defined for torus_dims == 0 specs"
        );
        let block = u64::from(self.model.chips_per_block());
        assert!(
            self.probe_slice_chips > 0
                && self.probe_slice_chips.is_multiple_of(block)
                && self.probe_slice_chips <= self.total_chips(),
            "probe slice must be a positive multiple of {block} chips within the machine"
        );
        let p = &self.profile;
        assert!(
            p.arrival_interval_s > 0.0
                && p.mean_duration_s > 0.0
                && p.mtbf_h > 0.0
                && p.mttr_h > 0.0
                && p.repair_slo_h.is_none_or(|s| s > 0.0),
            "fleet profile rates must be positive"
        );
        assert!(self.horizon_s >= 0.0, "horizon must be non-negative");

        let mut engine = Engine::new(self, fabric, seed);
        engine.drive();
        engine.into_trace()
    }
}

/// Everything one simulated run records; derived metrics come from
/// [`FleetTrace::metrics`]. Counters count engine actions; the `_s`
/// fields are time integrals (chip-seconds / host-seconds) over the
/// horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTrace {
    /// Simulated horizon, seconds.
    pub horizon_s: f64,
    /// Chips in the machine (whole blocks/islands).
    pub total_chips: u64,
    /// CPU hosts in the machine.
    pub total_hosts: u64,
    /// Probe slice size used for the goodput integral, chips.
    pub probe_slice_chips: u64,
    /// Events processed (arrivals, job ends incl. stale ones, host
    /// failures, host repairs).
    pub events: u64,
    /// Jobs that arrived within the horizon.
    pub arrivals: u64,
    /// Placement episodes (a preempted job placed again counts again).
    pub placements: u64,
    /// Jobs that ran to completion.
    pub completions: u64,
    /// Best-effort jobs evicted by production preemption.
    pub preemptions: u64,
    /// Jobs killed because a host under them failed.
    pub failure_kills: u64,
    /// Jobs rejected because the fabric can never offer their topology.
    pub rejected: u64,
    /// Host failure events (in-progress repairs at t = 0 from the
    /// stationary initialization are not failures *events*, so repairs
    /// may exceed failures by up to the initially-down host count).
    pub host_failures: u64,
    /// Host repair events.
    pub host_repairs: u64,
    /// Capacity-probe recomputations (block-health transitions).
    pub probes: u64,
    /// Jobs still queued at the horizon.
    pub left_in_queue: u64,
    /// ∫ busy chips dt (chips allocated to jobs, reconfig included).
    pub busy_chip_s: f64,
    /// Σ chips × reconfig window over placements (OCS arm only).
    pub reconfig_chip_s: f64,
    /// ∫ hosts up dt.
    pub up_host_s: f64,
    /// ∫ chips on fully-healthy blocks dt.
    pub healthy_chip_s: f64,
    /// ∫ chips deliverable as probe slices dt (the goodput integral).
    pub deliverable_chip_s: f64,
    /// Σ queueing delay over production placements, seconds.
    pub wait_production_s: f64,
    /// Σ queueing delay over best-effort placements, seconds.
    pub wait_best_effort_s: f64,
    /// Production placement episodes.
    pub placements_production: u64,
    /// Best-effort placement episodes.
    pub placements_best_effort: u64,
    /// Per-action log; empty unless [`FleetSim::with_recording`].
    pub log: Vec<TraceEvent>,
}

impl FleetTrace {
    /// Derives the steady-state metrics from the trace integrals.
    pub fn metrics(&self) -> FleetMetrics {
        let chip_time = self.total_chips as f64 * self.horizon_s;
        let host_time = self.total_hosts as f64 * self.horizon_s;
        let frac = |integral: f64, denom: f64| if denom > 0.0 { integral / denom } else { 0.0 };
        let wait = |sum: f64, n: u64| if n > 0 { sum / n as f64 } else { 0.0 };
        FleetMetrics {
            availability: frac(self.up_host_s, host_time),
            goodput: frac(self.deliverable_chip_s, chip_time),
            fragmentation: frac(self.healthy_chip_s - self.deliverable_chip_s, chip_time),
            utilization: frac(self.busy_chip_s, chip_time),
            reconfig_overhead: frac(self.reconfig_chip_s, chip_time),
            mean_wait_s: wait(
                self.wait_production_s + self.wait_best_effort_s,
                self.placements,
            ),
            mean_wait_production_s: wait(self.wait_production_s, self.placements_production),
            mean_wait_best_effort_s: wait(self.wait_best_effort_s, self.placements_best_effort),
            completions: self.completions as f64,
            preemptions: self.preemptions as f64,
            events: self.events as f64,
        }
    }
}

/// Steady-state metrics derived from a [`FleetTrace`] (all fields are
/// `f64` so [`FleetSim::run_trials`] can mean them exactly in trial
/// order).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetMetrics {
    /// Time-average fraction of hosts up. Converges to
    /// [`tpu_spec::FleetSpec::steady_availability`].
    pub availability: f64,
    /// Time-average fraction of the machine deliverable as probe
    /// slices. Converges to [`crate::GoodputSim::goodput`] at the
    /// steady-state availability.
    pub goodput: f64,
    /// Time-average fraction of the machine on healthy blocks yet *not*
    /// deliverable as probe slices — capacity stranded by fragmentation
    /// and slice granularity.
    pub fragmentation: f64,
    /// Time-average fraction of chips allocated to jobs.
    pub utilization: f64,
    /// Fraction of chip-time spent inside OCS reconfiguration windows.
    pub reconfig_overhead: f64,
    /// Mean queueing delay per placement episode, seconds.
    pub mean_wait_s: f64,
    /// Mean production-tier queueing delay, seconds.
    pub mean_wait_production_s: f64,
    /// Mean best-effort-tier queueing delay, seconds.
    pub mean_wait_best_effort_s: f64,
    /// Jobs completed (mean per trial under [`FleetSim::run_trials`]).
    pub completions: f64,
    /// Preemptions (mean per trial under [`FleetSim::run_trials`]).
    pub preemptions: f64,
    /// Events processed (mean per trial under
    /// [`FleetSim::run_trials`]).
    pub events: f64,
}

/// One recorded engine action, with the post-action machine state — the
/// invariants property tests replay (time monotone, chip/host
/// conservation, failure/repair alternation).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated time, seconds.
    pub t: f64,
    /// What happened.
    pub kind: TraceKind,
    /// Chips allocated to jobs after the action.
    pub busy_chips: u64,
    /// Hosts down after the action.
    pub down_hosts: u32,
}

/// The action behind one [`TraceEvent`]. `job` is the index into the
/// run's arrival stream; `host` is a global host index
/// (`unit * hosts_per_unit + host_in_unit`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A job arrived (queued or rejected — see `Rejected`).
    Arrival {
        /// Stream index of the job.
        job: u32,
    },
    /// A job's topology can never be offered on this fabric.
    Rejected {
        /// Stream index of the job.
        job: u32,
    },
    /// A job was placed on the fabric.
    Placed {
        /// Stream index of the job.
        job: u32,
        /// Chips the placement holds.
        chips: u64,
        /// Whether the job is production-tier.
        production: bool,
    },
    /// A job ran to completion and released its chips.
    Completed {
        /// Stream index of the job.
        job: u32,
    },
    /// A best-effort job was evicted by production preemption.
    Preempted {
        /// Stream index of the job.
        job: u32,
    },
    /// A job was killed because a host under it failed.
    FailureKill {
        /// Stream index of the job.
        job: u32,
    },
    /// A host went down.
    HostFailure {
        /// Global host index.
        host: u32,
    },
    /// A host came back up.
    HostRepair {
        /// Global host index.
        host: u32,
    },
}

/// One event the engine handles, in the order of the same-timestamp
/// rank: repairs before failures (capacity returns before it leaves, so
/// a simultaneous failure sees the repaired host), failures before job
/// ends, ends before arrivals (freed chips are visible to the arriving
/// job's scheduling pass).
enum Ev {
    Host(HostEv, u32),
    JobEnd { slot: u32 },
    JobArrival(DrawnJob),
}

/// A host event. Variant order *is* the same-timestamp rank (0 and 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum HostEv {
    Repair,
    Failure,
}

/// The same-timestamp rank of a job end. An arrival ranks 3, after
/// every other kind.
const RANK_END: u8 = 2;

/// A min-heap.
// tpu-lint: allow(determinism) -- keys are total: a job end's slot and a host event's seq are unique in their heap
type MinHeap<K> = std::collections::BinaryHeap<Reverse<K>>;

/// The pending job ends and host events. With the one pending arrival
/// (`JobDraw::next`), they are the run's three event sources, merged on
/// the key `(time bits, rank, seq)`. The sources hold different ranks,
/// so two sources never compare by `seq`, and each heap keeps its own.
#[derive(Default)]
struct Events {
    /// Job ends by `(time bits, slot)`. A job end is pushed when its job
    /// is placed, so slots rise in push order and the slot is the seq.
    ends: MinHeap<(u64, u32)>,
    /// Host repairs and failures by `(time bits, rank, seq, host)`.
    hosts: MinHeap<(u64, HostEv, u64, u32)>,
    host_seq: u64,
}

impl Events {
    fn push_end(&mut self, at: f64, slot: u32) {
        self.ends.push(Reverse((at.to_bits(), slot)));
    }

    fn push_host(&mut self, at: f64, ev: HostEv, host: u32) {
        self.host_seq += 1;
        self.hosts
            .push(Reverse((at.to_bits(), ev, self.host_seq, host)));
    }

    /// Pops the earliest event of the three sources: the top of either
    /// heap, or `arrival`, the one pending arrival, which wins only when
    /// it is strictly earlier (at equal time every other kind ranks
    /// before it).
    fn pop(&mut self, arrival: &mut Option<DrawnJob>) -> Option<(f64, Ev)> {
        let end = self.ends.peek().map(|&Reverse((bits, _))| (bits, RANK_END));
        let host = self
            .hosts
            .peek()
            .map(|&Reverse((bits, ev, ..))| (bits, ev as u8));
        let heaps = match (end, host) {
            (Some(e), Some(h)) => Some(e.min(h)),
            (e, h) => e.or(h),
        };
        if let Some(job) =
            arrival.take_if(|job| heaps.is_none_or(|(bits, _)| job.arrival.to_bits() < bits))
        {
            return Some((job.arrival, Ev::JobArrival(job)));
        }
        if heaps?.1 == RANK_END {
            let Reverse((bits, slot)) = self.ends.pop()?;
            Some((f64::from_bits(bits), Ev::JobEnd { slot }))
        } else {
            let Reverse((bits, ev, _, host)) = self.hosts.pop()?;
            Some((f64::from_bits(bits), Ev::Host(ev, host)))
        }
    }
}

/// What a job asks of the fabric: its Table 2 row's shape in whole
/// units. The engine builds one per row (`Engine::rows`), so a job names
/// its row, and its tier is the queue it waits in.
#[derive(Clone, Copy)]
struct Request {
    /// The box in blocks (islands), what the static arm places.
    blocks_box: (u32, u32, u32),
    chips: u64,
}

impl Request {
    /// The request for a chip shape on the model's units. Geometric
    /// blocks take the shape's box rounded up to whole blocks;
    /// geometry-less islands take a run of whole islands, at least one.
    fn for_shape(model: &PlannerModel, shape: SliceShape) -> Request {
        let edge = model.spec().block.edge.max(1);
        let chips_per_unit = u64::from(model.chips_per_block());
        let blocks_box = if u64::from(edge).pow(3) == chips_per_unit {
            (
                shape.x().div_ceil(edge),
                shape.y().div_ceil(edge),
                shape.z().div_ceil(edge),
            )
        } else {
            let units = shape.volume().div_ceil(chips_per_unit).max(1) as u32;
            (1, 1, units)
        };
        Request {
            blocks_box,
            chips: Request::blocks_in(blocks_box) * chips_per_unit,
        }
    }

    /// Blocks (islands) in a box.
    fn blocks_in(b: (u32, u32, u32)) -> u64 {
        u64::from(b.0) * u64::from(b.1) * u64::from(b.2)
    }
}

/// One drawn job: what arrives. Its duration is left in the stream
/// until the job is placed ([`Engine::fresh_duration`]).
struct DrawnJob {
    arrival: f64,
    row: u8,
    production: bool,
}

/// The lazy job-stream state: the dedicated jobs RNG plus the one job
/// drawn ahead of the newest arrival, which is the pending arrival
/// event.
struct JobDraw {
    rng: StdRng,
    /// The seed `rng` was made from, so any output can be redrawn.
    seed: u64,
    mix: SliceMix,
    next: Option<DrawnJob>,
    t: f64,
    done: bool,
}

/// A job: its index in the arrival stream and its Table 2 row.
#[derive(Clone, Copy)]
struct Job {
    idx: u32,
    row: u8,
}

/// A queued job that has not run yet. It queued when it arrived, and
/// its duration is redrawn when it is placed.
#[derive(Clone, Copy)]
struct Fresh {
    job: Job,
    arrival: f64,
}

// A saturated month leaves about a million fresh jobs waiting.
const _: () = assert!(std::mem::size_of::<Fresh>() == 16);

/// What is left of an evicted job (checkpoint semantics), queued again.
#[derive(Clone, Copy)]
struct Remainder {
    job: Job,
    remaining: f64,
    enqueued_t: f64,
}

/// The head of a tier queue.
#[derive(Clone, Copy)]
enum Waiting {
    Remainder(Remainder),
    Fresh(Fresh),
}

impl Waiting {
    fn job(self) -> Job {
        match self {
            Waiting::Remainder(r) => r.job,
            Waiting::Fresh(f) => f.job,
        }
    }
}

/// One tier's FIFO queue. An eviction re-queues its remainder at the
/// front and an arrival queues at the back, so the remainders are
/// always the front of the queue, newest first: a stack served before
/// the fresh jobs. The queue is the only record of a waiting job.
#[derive(Default)]
struct TierQueue {
    remainders: Vec<Remainder>,
    fresh: VecDeque<Fresh>,
}

impl TierQueue {
    fn head(&self) -> Option<Waiting> {
        match self.remainders.last() {
            Some(&r) => Some(Waiting::Remainder(r)),
            None => self.fresh.front().map(|&f| Waiting::Fresh(f)),
        }
    }

    fn pop_head(&mut self) {
        if self.remainders.pop().is_none() {
            self.fresh.pop_front();
        }
    }

    fn len(&self) -> usize {
        self.remainders.len() + self.fresh.len()
    }

    fn is_empty(&self) -> bool {
        self.remainders.is_empty() && self.fresh.is_empty()
    }
}

/// What a placed job holds on its fabric arm.
enum Hold {
    /// Contiguous blocks on the static arm.
    Blocks(Vec<u32>),
    /// Blocks on the OCS plugboard, bit `i` for block `i`.
    Mask(u64),
    /// Chips behind the switched fat tree, which pins no unit.
    Chips,
}

/// A running (placed) job, with what it re-queues on eviction.
struct Running {
    /// The job's placement index.
    slot: u32,
    job: Job,
    production: bool,
    hold: Hold,
    placed_t: f64,
    reconfig_s: f64,
    remaining_at_start: f64,
}

/// The main fabric arm.
enum Arm {
    /// Contiguous boxes on a clone of the model's static cluster, which
    /// sees every host failure and repair the engine's record does.
    Fixed(StaticCluster),
    /// The OCS plugboard: a job takes any free healthy blocks. `taken`
    /// holds the blocks running jobs hold, one bit each; the healthy
    /// blocks are the engine's health word (a torus fleet has at most
    /// `PALOMAR_MAX_BLOCKS`, 64, blocks, so one word covers them).
    Plugboard { taken: u64 },
    /// Switched islands behind the fat tree: a job fits while its chips
    /// fit in the healthy chips less the busy ones.
    Switched,
}

/// One run's full mutable state.
struct Engine<'a> {
    sim: &'a FleetSim,
    arm: Arm,
    /// The static arm's capacity probe: the first fit of the probe box
    /// on the model's pristine cluster, planned once per run (`None` on
    /// the reconfigurable arms).
    static_probe: Option<FirstFitPlan<'a>>,
    probe_shape: SliceShape,
    probe_blocks: u32,
    reconfig_s: f64,
    mtbf_s: f64,
    mttr_s: f64,
    slo_s: Option<f64>,
    draw: JobDraw,
    /// The request of each Table 2 row, indexed by `Job::row`, and
    /// whether the arm can ever offer it.
    rows: Vec<(Request, bool)>,
    health_rng: StdRng,
    events: Events,
    now: f64,
    /// Live host health. The probe and the reconfigurable arms read its
    /// unit health words; the static arm's cluster keeps an equal
    /// record.
    health: HostHealth,
    busy_chips: u64,
    deliverable_chips: u64,
    probe_dirty: bool,
    /// Running jobs in slot order. A slot is the job's placement index,
    /// so a placement pushes at the back and slot order is placement
    /// order; slots are never reused, so a stale `JobEnd` (its job was
    /// evicted meanwhile) finds no entry.
    running: Vec<Running>,
    queues: [TierQueue; 2],
    preempt_exhausted: bool,
    trace: FleetTrace,
}

/// Queue index per tier.
const PRODUCTION: usize = 0;
const BEST_EFFORT: usize = 1;

impl<'a> Engine<'a> {
    fn new(sim: &'a FleetSim, fabric: FabricKind, seed: u64) -> Engine<'a> {
        let profile = &sim.profile;
        let units = sim.model.blocks();
        // The reconfigurable arms admit by the rules of the model's
        // machine, on words: the DES only asks *whether and where* a job
        // fits, never which circuits carry it.
        let arm = if fabric == FabricKind::Static {
            Arm::Fixed(sim.model.static_arm().clone())
        } else if sim.model.spec().torus_dims > 0 {
            Arm::Plugboard { taken: 0 }
        } else {
            Arm::Switched
        };
        let (probe_box, probe_shape, probe_blocks) = slice_geometry(
            sim.model.spec(),
            sim.model.chips_per_block(),
            sim.probe_slice_chips,
        );
        let static_probe =
            matches!(arm, Arm::Fixed(_)).then(|| sim.model.static_arm().plan_first_fit(probe_box));
        // The plugboard spends reconfig_ms programming circuits per
        // placement; static cabling and packet-switched fabrics have no
        // such window.
        let reconfig_s = if matches!(arm, Arm::Plugboard { .. }) {
            sim.model
                .spec()
                .ocs
                .as_ref()
                .map_or(consts::OCS_RECONFIG_MS, |o| o.reconfig_ms)
                / consts::KILO
        } else {
            0.0
        };

        // The job stream draws on its own RNG stream: Poisson arrivals
        // over the slice mix and Bernoulli tier draws one job ahead of
        // the newest arrival (`draw_next_job`), exponential durations
        // when a job is first placed (`fresh_duration`).
        let jobs_seed = chunk_seed(seed, STREAM_JOBS);
        let mix = SliceMix::table2();
        let rows = mix
            .entries()
            .iter()
            .map(|e| {
                let request = Request::for_shape(&sim.model, e.shape);
                let offerable = match &arm {
                    Arm::Fixed(cluster) => cluster.fits(request.blocks_box),
                    Arm::Plugboard { .. } | Arm::Switched => request.chips <= sim.total_chips(),
                };
                (request, offerable)
            })
            .collect();
        let draw = JobDraw {
            rng: StdRng::seed_from_u64(jobs_seed),
            seed: jobs_seed,
            mix,
            next: None,
            t: 0.0,
            done: !profile.arrival_interval_s.is_finite(),
        };

        let trace = FleetTrace {
            horizon_s: sim.horizon_s,
            total_chips: sim.total_chips(),
            total_hosts: sim.total_hosts(),
            probe_slice_chips: sim.probe_slice_chips,
            events: 0,
            arrivals: 0,
            placements: 0,
            completions: 0,
            preemptions: 0,
            failure_kills: 0,
            rejected: 0,
            host_failures: 0,
            host_repairs: 0,
            probes: 0,
            left_in_queue: 0,
            busy_chip_s: 0.0,
            reconfig_chip_s: 0.0,
            up_host_s: 0.0,
            healthy_chip_s: 0.0,
            deliverable_chip_s: 0.0,
            wait_production_s: 0.0,
            wait_best_effort_s: 0.0,
            placements_production: 0,
            placements_best_effort: 0,
            log: Vec::new(),
        };
        let mut engine = Engine {
            sim,
            arm,
            static_probe,
            probe_shape,
            probe_blocks,
            reconfig_s,
            mtbf_s: profile.mtbf_h * 3600.0,
            mttr_s: profile.mttr_h * 3600.0,
            slo_s: profile.repair_slo_h.map(|s| s * 3600.0),
            draw,
            rows,
            health_rng: StdRng::seed_from_u64(chunk_seed(seed, STREAM_HEALTH)),
            events: Events::default(),
            now: 0.0,
            health: HostHealth::new(units as usize, sim.model.hosts_per_block()),
            busy_chips: 0,
            deliverable_chips: 0,
            probe_dirty: true,
            running: Vec::new(),
            queues: [TierQueue::default(), TierQueue::default()],
            preempt_exhausted: false,
            trace,
        };
        engine.draw_next_job();
        engine.init_hosts();
        engine
    }

    /// Draws the next job from the job stream into `draw.next`. Job `k`
    /// owns outputs `4k` to `4k + 3` of the stream: its gap, row,
    /// duration and tier draws, in that order. The row draw reads one
    /// output (`SliceMix::sample_index`), and the duration is stepped
    /// over here and redrawn at placement ([`Engine::fresh_duration`]).
    /// A gap crossing the horizon ends the stream having consumed only
    /// the gap draw.
    fn draw_next_job(&mut self) {
        if self.draw.done {
            return;
        }
        let rng = &mut self.draw.rng;
        self.draw.t += -self.sim.profile.arrival_interval_s * (1.0 - rng.random::<f64>()).ln();
        if self.draw.t >= self.sim.horizon_s {
            self.draw.done = true;
            return;
        }
        // Table 2 has 30 rows.
        let row = self.draw.mix.sample_index(rng) as u8;
        // Output 4k + 2, the duration.
        let _ = rng.random::<u64>();
        let production = rng.random::<f64>() < PRODUCTION_SHARE;
        self.draw.next = Some(DrawnJob {
            arrival: self.draw.t,
            row,
            production,
        });
    }

    /// What a job asks of the fabric: its row's request.
    fn request(&self, job: Job) -> Request {
        self.rows[usize::from(job.row)].0
    }

    /// The duration of job `idx`, redrawn from output `4·idx + 2` of the
    /// jobs stream: exponential with the profile's mean.
    fn fresh_duration(&self, idx: u32) -> f64 {
        let mut rng = StdRng::seed_from_u64_at(self.draw.seed, 4 * u64::from(idx) + 2);
        -self.sim.profile.mean_duration_s * (1.0 - rng.random::<f64>()).ln()
    }

    /// Draws every host's initial state from the *stationary*
    /// distribution of its alternating-renewal process: up with
    /// probability `steady_availability()`; an up host's residual
    /// up-time is Exp(mtbf) (memoryless), a down host's residual repair
    /// comes from the equilibrium residual distribution of
    /// `min(Exp(mttr), slo)` by inversion. Time averages therefore
    /// match the steady state from t = 0 — no warm-up transient to cut.
    fn init_hosts(&mut self) {
        let availability = self.sim.profile.steady_availability();
        for host in 0..self.sim.total_hosts() as u32 {
            if self.health_rng.random::<f64>() < availability {
                let residual = self.draw_up_time();
                self.events.push_host(residual, HostEv::Failure, host);
            } else {
                let residual = self.draw_equilibrium_repair();
                self.set_host_up(host, false);
                self.events.push_host(residual, HostEv::Repair, host);
            }
        }
    }

    fn draw_up_time(&mut self) -> f64 {
        -self.mtbf_s * (1.0 - self.health_rng.random::<f64>()).ln()
    }

    fn draw_repair_time(&mut self) -> f64 {
        let exp = -self.mttr_s * (1.0 - self.health_rng.random::<f64>()).ln();
        match self.slo_s {
            None => exp,
            Some(slo) => exp.min(slo),
        }
    }

    /// Inversion sampling of the equilibrium residual of one repair:
    /// for R = min(Exp(m), s), P(R > x) = e^(-x/m) on [0, s), so the
    /// residual CDF is (1 − e^(−x/m)) / (1 − e^(−s/m)) and
    /// x = −m·ln(1 − u·(1 − e^(−s/m))).
    fn draw_equilibrium_repair(&mut self) -> f64 {
        let u = self.health_rng.random::<f64>();
        match self.slo_s {
            None => -self.mttr_s * (1.0 - u).ln(),
            Some(slo) => {
                let scale = 1.0 - (-slo / self.mttr_s).exp();
                -self.mttr_s * (1.0 - u * scale).ln()
            }
        }
    }

    fn drive(&mut self) {
        while let Some((t, ev)) = self.events.pop(&mut self.draw.next) {
            if t > self.sim.horizon_s {
                break;
            }
            if self.probe_dirty {
                self.reprobe();
            }
            self.integrate(t);
            self.handle(t, ev);
        }
        if self.probe_dirty {
            self.reprobe();
        }
        let horizon = self.sim.horizon_s;
        self.integrate(horizon);
    }

    /// Advances the state integrals to `to` with the current values —
    /// callers must reprobe first if block health changed.
    fn integrate(&mut self, to: f64) {
        let dt = to - self.now;
        if dt > 0.0 {
            self.trace.busy_chip_s += self.busy_chips as f64 * dt;
            self.trace.up_host_s += f64::from(self.health.up_hosts()) * dt;
            self.trace.healthy_chip_s += f64::from(self.health.up_units())
                * f64::from(self.sim.model.chips_per_block())
                * dt;
            self.trace.deliverable_chip_s += self.deliverable_chips as f64 * dt;
        }
        self.now = to;
    }

    /// Recomputes deliverable capacity by running the model's
    /// *pristine* arm, with the live block health, through the exact
    /// placement counts `GoodputSim` uses. The probe never holds jobs,
    /// so this is the capacity the closed-form model would report for
    /// this instant; both counts only read the arm they borrow.
    fn reprobe(&mut self) {
        let placed_blocks = match &self.static_probe {
            Some(plan) => plan.count(self.health.words()) * self.probe_blocks,
            None => place_reconfigurable_words(
                self.sim.model.reconfigurable_arm(),
                self.health.words(),
                self.health.units(),
                self.probe_shape,
                self.probe_blocks,
            ),
        };
        self.deliverable_chips =
            u64::from(placed_blocks) * u64::from(self.sim.model.chips_per_block());
        self.probe_dirty = false;
        self.trace.probes += 1;
    }

    fn handle(&mut self, t: f64, ev: Ev) {
        self.trace.events += 1;
        match ev {
            Ev::Host(HostEv::Failure, host) => self.host_failure(t, host),
            Ev::Host(HostEv::Repair, host) => self.host_repair(t, host),
            Ev::JobEnd { slot } => self.job_end(t, slot),
            Ev::JobArrival(job) => self.job_arrival(t, job),
        }
    }

    fn host_failure(&mut self, t: f64, host: u32) {
        self.trace.host_failures += 1;
        let repair_at = t + self.draw_repair_time();
        self.events.push_host(repair_at, HostEv::Repair, host);
        let unit_down = self.set_host_up(host, false);
        // Recorded before its consequences (kills) so a replayed ledger
        // sees cause before effect.
        self.record(t, TraceKind::HostFailure { host });
        let mut killed = 0;
        if unit_down {
            // The block (island) crossed healthy -> down: jobs on it die
            // and re-queue (checkpoint/restore), and the capacity probe
            // is stale.
            killed = self.kill_jobs_for_failure(t, host / self.sim.model.hosts_per_block());
            // Switched fabrics have no job -> unit pinning; the failure
            // displaces the newest jobs past capacity.
            if let Arm::Switched = self.arm {
                let healthy_chips = self.switched_healthy_chips();
                while self.busy_chips > healthy_chips {
                    let Some(i) = self.newest_running(false) else {
                        break;
                    };
                    self.evict(t, i, EvictReason::FailureKill);
                    killed += 1;
                }
            }
            self.probe_dirty = true;
        }
        // Killed jobs freed chips on healthy blocks too, so queued work
        // may now fit.
        self.pass(t, killed > 0);
    }

    fn host_repair(&mut self, t: f64, host: u32) {
        self.trace.host_repairs += 1;
        let fail_at = t + self.draw_up_time();
        self.events.push_host(fail_at, HostEv::Failure, host);
        let recovered = self.set_host_up(host, true);
        if recovered {
            self.probe_dirty = true;
        }
        self.record(t, TraceKind::HostRepair { host });
        self.pass(t, recovered);
    }

    fn job_end(&mut self, t: f64, slot: u32) {
        // A preempted or killed job left no entry; its end is stale.
        let Ok(i) = self.running.binary_search_by_key(&slot, |r| r.slot) else {
            return;
        };
        let running = self.running.remove(i);
        self.release(running.hold, self.request(running.job).chips);
        self.trace.completions += 1;
        self.record(
            t,
            TraceKind::Completed {
                job: running.job.idx,
            },
        );
        self.pass(t, true);
    }

    /// Handles the arrival of the job drawn ahead. Arrivals come in
    /// stream order, so the count of earlier arrivals is its index.
    fn job_arrival(&mut self, t: f64, job: DrawnJob) {
        let idx = self.trace.arrivals as u32;
        self.trace.arrivals += 1;
        // Extend the lazy stream by one: job idx+1 is drawn exactly
        // when job idx arrives (a no-op once the stream crossed the
        // horizon), and it is the next pending arrival.
        self.draw_next_job();
        self.record(t, TraceKind::Arrival { job: idx });
        if !self.rows[usize::from(job.row)].1 {
            self.trace.rejected += 1;
            self.record(t, TraceKind::Rejected { job: idx });
            return;
        }
        let queue = &mut self.queues[tier_of(job.production)];
        let becomes_head = queue.is_empty();
        queue.fresh.push_back(Fresh {
            job: Job { idx, row: job.row },
            arrival: t,
        });
        // A job that queues behind an existing head cannot change the
        // pass's outcome, so it runs no pass. Every handler ends with a
        // pass, after which each non-empty queue's head has just been
        // refused on the current arm state, and a non-empty production
        // queue means preemption is off or already exhausted. Queueing
        // behind a head changes neither arm, neither head and not
        // `preempt_exhausted`, and a refused attempt mutates nothing:
        // `StaticCluster::allocate` returns before any mutation, and the
        // plugboard and switched arms only compare words and counts
        // (`admit`). The skipped pass would refuse both heads again and
        // record nothing.
        if becomes_head {
            self.pass(t, false);
        }
    }

    /// The scheduling pass: place the production head (preempting
    /// best-effort work once per capacity change if blocked), then
    /// backfill best-effort. Repeats while progress is made.
    fn pass(&mut self, t: f64, capacity_changed: bool) {
        if capacity_changed {
            self.preempt_exhausted = false;
        }
        loop {
            let mut progressed = false;
            while let Some(head) = self.queues[PRODUCTION].head() {
                let chips = self.request(head.job()).chips;
                if self.try_place_head(t, PRODUCTION) {
                    progressed = true;
                    continue;
                }
                if self.sim.preemption && !self.preempt_exhausted {
                    self.preempt_for(t, chips);
                    self.preempt_exhausted = true;
                    if self.try_place_head(t, PRODUCTION) {
                        progressed = true;
                        continue;
                    }
                }
                break;
            }
            while self.try_place_head(t, BEST_EFFORT) {
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    /// Evicts the newest best-effort jobs until the chips freed could
    /// cover the blocked production job's `needed` chips, then stops —
    /// placement is retried by the caller (geometry may still refuse).
    fn preempt_for(&mut self, t: f64, needed: u64) {
        let mut freed = 0u64;
        while freed < needed {
            let Some(i) = self.newest_running(true) else {
                break;
            };
            freed += self.evict(t, i, EvictReason::Preempted);
        }
    }

    /// The position of the newest (latest-placed) running job,
    /// optionally only among best-effort jobs — the eviction order of
    /// preemption and switched displacement.
    fn newest_running(&self, best_effort_only: bool) -> Option<usize> {
        self.running
            .iter()
            .rposition(|r| !best_effort_only || !r.production)
    }

    /// Kills every running job with a block on the failed unit, oldest
    /// first (torus arms — switched jobs have no unit pinning and are
    /// handled by capacity displacement instead). Returns the kill
    /// count.
    fn kill_jobs_for_failure(&mut self, t: f64, unit: u32) -> u64 {
        let mut killed = 0;
        let mut i = 0;
        while i < self.running.len() {
            let on_unit = match &self.running[i].hold {
                Hold::Blocks(blocks) => blocks.contains(&unit),
                Hold::Mask(mask) => mask >> unit & 1 == 1,
                Hold::Chips => false,
            };
            if on_unit {
                self.evict(t, i, EvictReason::FailureKill);
                killed += 1;
            } else {
                i += 1;
            }
        }
        killed
    }

    /// Removes the running job at position `i` from the fabric and
    /// re-queues its remainder at the front of its tier (checkpoint
    /// semantics: the compute already done is kept). Returns the chips
    /// freed.
    fn evict(&mut self, t: f64, i: usize, reason: EvictReason) -> u64 {
        let running = self.running.remove(i);
        let job = running.job;
        let chips = self.request(job).chips;
        self.release(running.hold, chips);
        let compute_done = (t - running.placed_t - running.reconfig_s).max(0.0);
        let remaining = (running.remaining_at_start - compute_done).max(0.0);
        let kind = match reason {
            EvictReason::Preempted => {
                self.trace.preemptions += 1;
                TraceKind::Preempted { job: job.idx }
            }
            EvictReason::FailureKill => {
                self.trace.failure_kills += 1;
                TraceKind::FailureKill { job: job.idx }
            }
        };
        self.queues[tier_of(running.production)]
            .remainders
            .push(Remainder {
                job,
                remaining,
                enqueued_t: t,
            });
        self.record(t, kind);
        chips
    }

    /// Tries to place the head of one tier queue; on success pops it,
    /// schedules its end, and accounts the wait. A fresh job's duration
    /// is drawn here.
    fn try_place_head(&mut self, t: f64, tier: usize) -> bool {
        let Some(head) = self.queues[tier].head() else {
            return false;
        };
        let job = head.job();
        let request = self.request(job);
        let Some(hold) = self.admit(request) else {
            return false;
        };
        self.queues[tier].pop_head();
        let (remaining, enqueued_t) = match head {
            Waiting::Remainder(r) => (r.remaining, r.enqueued_t),
            Waiting::Fresh(f) => (self.fresh_duration(job.idx), f.arrival),
        };
        let chips = request.chips;
        let slot = self.trace.placements as u32;
        let wait = t - enqueued_t;
        self.trace.placements += 1;
        if tier == PRODUCTION {
            self.trace.placements_production += 1;
            self.trace.wait_production_s += wait;
        } else {
            self.trace.placements_best_effort += 1;
            self.trace.wait_best_effort_s += wait;
        }
        self.trace.reconfig_chip_s += chips as f64 * self.reconfig_s;
        self.running.push(Running {
            slot,
            job,
            production: tier == PRODUCTION,
            hold,
            placed_t: t,
            reconfig_s: self.reconfig_s,
            remaining_at_start: remaining,
        });
        let end_at = t + self.reconfig_s + remaining;
        self.events.push_end(end_at, slot);
        self.record(
            t,
            TraceKind::Placed {
                job: job.idx,
                chips,
                production: tier == PRODUCTION,
            },
        );
        true
    }

    /// Admits a request on the arm and counts its chips busy, or
    /// refuses it and changes nothing. The rules are the model machine's
    /// own: the static arm packs through `StaticCluster::allocate`; the
    /// plugboard takes the lowest free healthy blocks, the pick
    /// `Fabric::allocate` makes; a switched job fits while its chips fit
    /// in healthy chips minus busy chips, as `Supercomputer::submit`
    /// decides.
    fn admit(&mut self, request: Request) -> Option<Hold> {
        let hold = match &mut self.arm {
            Arm::Fixed(cluster) => Hold::Blocks(cluster.allocate(request.blocks_box).ok()?),
            Arm::Plugboard { taken } => {
                let needed = Request::blocks_in(request.blocks_box) as usize;
                let mask = pick_lowest_blocks(self.health.words()[0] & !*taken, needed)?;
                *taken |= mask;
                Hold::Mask(mask)
            }
            Arm::Switched => {
                let free = self
                    .switched_healthy_chips()
                    .saturating_sub(self.busy_chips);
                if request.chips > free {
                    return None;
                }
                Hold::Chips
            }
        };
        self.busy_chips += request.chips;
        Some(hold)
    }

    /// Returns a running job's hold and its chips to the arm.
    fn release(&mut self, hold: Hold, chips: u64) {
        match (&mut self.arm, hold) {
            (Arm::Fixed(cluster), Hold::Blocks(blocks)) => cluster.release(&blocks),
            (Arm::Plugboard { taken }, Hold::Mask(mask)) => *taken &= !mask,
            (Arm::Switched, Hold::Chips) => {}
            _ => unreachable!("hold kind always matches the arm"),
        }
        self.busy_chips -= chips;
    }

    /// Marks one host (a global index, `unit * hosts_per_unit +
    /// host_in_unit`) up or down in the health record, and on the static
    /// arm in its cluster too, so every arm sees exactly the unit health
    /// the probe measures. Returns whether the host's unit crossed
    /// between healthy and down.
    fn set_host_up(&mut self, host: u32, up: bool) -> bool {
        let hosts = self.sim.model.hosts_per_block();
        let (unit, in_unit) = (host / hosts, host % hosts);
        if let Arm::Fixed(cluster) = &mut self.arm {
            cluster
                .set_host_up(unit, in_unit, up)
                .expect("host indices are in range"); // tpu-lint: allow(panic-policy) -- unreachable: host indices are in range
        }
        self.health.set_host_up(unit as usize, in_unit, up) == Ok(true)
    }

    /// The switched arm's healthy chips: the chips on the islands the
    /// health words mark up, the last island partial.
    fn switched_healthy_chips(&self) -> u64 {
        healthy_chips(
            self.health.words(),
            self.health.units(),
            u64::from(self.sim.model.chips_per_block()),
            self.sim.model.spec().fleet_chips,
        )
    }

    fn record(&mut self, t: f64, kind: TraceKind) {
        if self.sim.record_events {
            let down_hosts = self.sim.total_hosts() as u32 - self.health.up_hosts();
            self.trace.log.push(TraceEvent {
                t,
                kind,
                busy_chips: self.busy_chips,
                down_hosts,
            });
        }
    }

    fn into_trace(mut self) -> FleetTrace {
        self.trace.left_in_queue = self.queues.iter().map(|q| q.len() as u64).sum();
        self.trace
    }
}

/// Why a running job was evicted.
enum EvictReason {
    Preempted,
    FailureKill,
}

fn tier_of(production: bool) -> usize {
    if production {
        PRODUCTION
    } else {
        BEST_EFFORT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    mod word_admission;

    /// A month-scale v4 run small enough for debug-mode tests: higher
    /// offered load and failure rate than the reference profile so
    /// every engine path (queueing, preemption, kills) exercises.
    fn sim() -> FleetSim {
        FleetSim::for_spec(&MachineSpec::v4(), 50_000.0, 42).with_profile(FleetSpec {
            arrival_interval_s: 40.0,
            mean_duration_s: 260.0,
            mtbf_h: 8.0,
            mttr_h: 0.2,
            repair_slo_h: None,
        })
    }

    #[test]
    fn v4_fleet_runs_and_derives_sane_metrics() {
        let trace = sim().run(FabricKind::Ocs);
        let m = trace.metrics();
        assert!(trace.completions > 200, "{trace:?}");
        assert!(trace.host_failures > 50);
        assert!(trace.host_repairs > 50);
        assert!((0.0..=1.0).contains(&m.availability), "{m:?}");
        assert!((0.0..=1.0).contains(&m.goodput), "{m:?}");
        assert!((0.0..=1.0).contains(&m.utilization), "{m:?}");
        assert!(m.fragmentation >= 0.0, "{m:?}");
        assert!(
            m.reconfig_overhead > 0.0,
            "the plugboard arm pays reconfig windows"
        );
        let expect = sim().profile.steady_availability();
        assert!(
            (m.availability - expect).abs() < 0.02,
            "{} vs {expect}",
            m.availability
        );
    }

    #[test]
    fn static_arm_pays_fragmentation_not_reconfig() {
        let trace = sim().run(FabricKind::Static);
        let m = trace.metrics();
        assert_eq!(m.reconfig_overhead, 0.0);
        assert!(trace.rejected > 0, "cigar shapes are never offerable");
        let ocs = sim().run(FabricKind::Ocs).metrics();
        assert!(
            ocs.goodput > m.goodput,
            "the Figure 4 gap: ocs {} <= static {}",
            ocs.goodput,
            m.goodput
        );
    }

    /// The §2.5 scheduling benefit, with host failures pushed past the
    /// horizon so placement alone separates the arms. Each case runs
    /// both arms on one seed; every run conserves jobs (each arrival is
    /// rejected, queued, running or completed at the horizon).
    #[test]
    fn ocs_scheduling_beats_contiguous_placement() {
        type Check = fn(&FleetTrace, &FleetTrace);
        let cases: [(&str, MachineSpec, f64, f64, f64, u64, Check); 3] = [
            // §2.6 benefit 6, "simplified scheduling to improve
            // utilization": v4 near saturation. Table 2's cigar shapes
            // (4x4x192 -> 1x1x48 blocks) are no contiguous box at all.
            (
                "v4 loaded",
                MachineSpec::v4(),
                2_000.0,
                1.2,
                8.0,
                42,
                |ocs, fixed| {
                    let (u_ocs, u_fixed) = (ocs.metrics().utilization, fixed.metrics().utilization);
                    assert!(u_ocs > u_fixed, "utilization {u_ocs} <= {u_fixed}");
                    assert!(u_ocs > 0.5, "utilization {u_ocs}");
                    assert!(ocs.completions > fixed.completions);
                    assert!(ocs.completions > ocs.arrivals / 2, "most jobs run");
                    assert_eq!(ocs.rejected, 0);
                    assert!(fixed.rejected > 0, "cigar shapes are never offerable");
                },
            ),
            // Light load: both arms place every offerable job on arrival.
            (
                "v4 light",
                MachineSpec::v4(),
                2_000.0,
                40.0,
                5.0,
                7,
                |ocs, fixed| {
                    assert_eq!(ocs.placements, fixed.placements + fixed.rejected);
                    assert_eq!(ocs.metrics().mean_wait_s, 0.0);
                    assert_eq!(fixed.metrics().mean_wait_s, 0.0);
                },
            ),
            // The real statically-cabled generation; its OCS arm is the
            // §2.7 counterfactual.
            ("v3", MachineSpec::v3(), 500.0, 2.0, 6.0, 9, |ocs, fixed| {
                assert!(ocs.completions >= fixed.completions);
                assert!(fixed.rejected >= ocs.rejected);
            }),
        ];
        for (name, spec, horizon_s, arrival_interval_s, mean_duration_s, seed, check) in cases {
            let sim = FleetSim::for_spec(&spec, horizon_s, seed).with_profile(FleetSpec {
                arrival_interval_s,
                mean_duration_s,
                mtbf_h: 1.0e9,
                ..FleetSpec::reference()
            });
            let (ocs, fixed) = (sim.run(FabricKind::Ocs), sim.run(FabricKind::Static));
            for t in [&ocs, &fixed] {
                assert_eq!(
                    t.host_failures, 0,
                    "{name}: failures must stay past the horizon"
                );
                assert_eq!(
                    t.arrivals,
                    t.rejected + t.left_in_queue + t.placements - t.preemptions - t.failure_kills,
                    "{name}: jobs not conserved"
                );
            }
            check(&ocs, &fixed);
        }
    }

    /// Job `k` owns outputs `4k` to `4k + 3` of the jobs stream: the
    /// gap, row, duration and tier read in sequence equal the ones drawn
    /// at those counters, the engine's one-ahead draw reads the same
    /// job, and a fresh job's redrawn duration is the sequence's. A row
    /// draw that read more or fewer than one output would move every
    /// later job off its counters.
    #[test]
    fn job_k_owns_outputs_4k_to_4k_plus_3() {
        let (interval, mean) = (2.5, 17.0);
        let sim = FleetSim::for_spec(&MachineSpec::v4(), 1.0e9, 2023).with_profile(FleetSpec {
            arrival_interval_s: interval,
            mean_duration_s: mean,
            ..FleetSpec::reference()
        });
        let mut engine = Engine::new(&sim, FabricKind::Ocs, 2023);
        let seed = engine.draw.seed;
        let at = |n: u64| StdRng::seed_from_u64_at(seed, n);
        let mix = SliceMix::table2();
        let mut sequence = StdRng::seed_from_u64(seed);
        let mut t = 0.0;
        for k in 0..10_000u32 {
            let n = 4 * u64::from(k);
            let gap = sequence.random::<f64>();
            let row = mix.sample_index(&mut sequence);
            let duration = sequence.random::<f64>();
            let tier = sequence.random::<f64>();
            assert_eq!(gap.to_bits(), at(n).random::<f64>().to_bits(), "job {k}");
            assert_eq!(row, mix.sample_index(&mut at(n + 1)), "job {k}");
            assert_eq!(
                duration.to_bits(),
                at(n + 2).random::<f64>().to_bits(),
                "job {k}"
            );
            assert_eq!(
                tier.to_bits(),
                at(n + 3).random::<f64>().to_bits(),
                "job {k}"
            );

            let drawn = engine.draw.next.take().unwrap();
            t += -interval * (1.0 - gap).ln();
            assert_eq!(drawn.arrival.to_bits(), t.to_bits(), "job {k}");
            assert_eq!(usize::from(drawn.row), row, "job {k}");
            assert_eq!(drawn.production, tier < PRODUCTION_SHARE, "job {k}");
            let expect = -mean * (1.0 - duration).ln();
            assert_eq!(
                engine.fresh_duration(k).to_bits(),
                expect.to_bits(),
                "job {k}"
            );
            engine.draw_next_job();
        }
    }

    /// The three event sources pop in the order of the single heap they
    /// replace, a `BinaryHeap<Reverse<(time bits, rank, seq, event)>>`
    /// fed the same events. The seeded script draws every time from
    /// three values, so it ties across all four kinds and within each
    /// heap. As in the engine, at most one arrival is pending and job
    /// ends take rising slots.
    #[test]
    fn event_sources_pop_in_single_heap_order() {
        let mut rng = StdRng::seed_from_u64(25);
        let mut events = Events::default();
        let mut arrival = None;
        // An event is (rank, host or slot); the one pending arrival
        // needs no name.
        let mut reference = MinHeap::<(u64, u8, u64, (u8, u32))>::new();
        let name = |(t, ev): (f64, Ev)| {
            let ev = match ev {
                Ev::Host(ev, host) => (ev as u8, host),
                Ev::JobEnd { slot } => (RANK_END, slot),
                Ev::JobArrival(_) => (3, 0),
            };
            (t.to_bits(), ev)
        };
        let (mut seq, mut slots, mut pops) = (0, 0, 0);
        for step in 0..40_000 {
            let at = f64::from(rng.random_range(0..3u32));
            seq += 1;
            match rng.random_range(0..5u32) {
                0 => {
                    let (ev, host) = (
                        [HostEv::Repair, HostEv::Failure][rng.random_range(0..2usize)],
                        rng.random_range(0..8u32),
                    );
                    events.push_host(at, ev, host);
                    reference.push(Reverse((at.to_bits(), ev as u8, seq, (ev as u8, host))));
                }
                1 => {
                    events.push_end(at, slots);
                    reference.push(Reverse((at.to_bits(), RANK_END, seq, (RANK_END, slots))));
                    slots += 1;
                }
                2 if arrival.is_none() => {
                    arrival = Some(DrawnJob {
                        arrival: at,
                        row: 0,
                        production: false,
                    });
                    reference.push(Reverse((at.to_bits(), 3, seq, (3, 0))));
                }
                _ => {
                    let want = reference.pop().map(|Reverse((bits, _, _, ev))| (bits, ev));
                    assert_eq!(events.pop(&mut arrival).map(name), want, "step {step}");
                    pops += u32::from(want.is_some());
                }
            }
        }
        while let Some(Reverse((bits, _, _, ev))) = reference.pop() {
            assert_eq!(events.pop(&mut arrival).map(name), Some((bits, ev)));
        }
        assert!(events.pop(&mut arrival).is_none());
        assert!(pops > 10_000 && slots > 5_000, "{pops} pops, {slots} ends");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = sim().run(FabricKind::Ocs);
        let b = sim().run(FabricKind::Ocs);
        assert_eq!(a, b);
    }

    #[test]
    fn preemption_happens_and_can_be_disabled() {
        let with = sim().run(FabricKind::Ocs);
        assert!(with.preemptions > 0, "{with:?}");
        let without = sim().with_preemption(false).run(FabricKind::Ocs);
        assert_eq!(without.preemptions, 0);
        // Production jobs wait less when they may preempt.
        let m_with = with.metrics();
        let m_without = without.metrics();
        assert!(
            m_with.mean_wait_production_s <= m_without.mean_wait_production_s,
            "{} > {}",
            m_with.mean_wait_production_s,
            m_without.mean_wait_production_s
        );
    }

    #[test]
    fn host_failures_kill_overlapping_jobs() {
        let trace = sim().run(FabricKind::Ocs);
        assert!(trace.failure_kills > 0, "{trace:?}");
    }

    #[test]
    fn switched_fleet_runs_capacity_displacement() {
        let spec = MachineSpec::v4_ib_hybrid();
        let sim = FleetSim::for_spec(&spec, 50_000.0, 7).with_profile(FleetSpec {
            arrival_interval_s: 40.0,
            mean_duration_s: 260.0,
            mtbf_h: 8.0,
            mttr_h: 0.2,
            repair_slo_h: None,
        });
        let trace = sim.run(FabricKind::Switched);
        assert!(trace.completions > 100, "{trace:?}");
        assert!(
            trace.rejected == 0,
            "a switched fabric offers any chip count"
        );
        let m = trace.metrics();
        assert_eq!(m.reconfig_overhead, 0.0, "no plugboard, no windows");
    }

    #[test]
    fn run_trials_is_thread_count_invariant() {
        let s = sim().with_threads(1);
        let one = s.run_trials(FabricKind::Ocs, 3);
        for threads in [2, 8] {
            let other = sim().with_threads(threads).run_trials(FabricKind::Ocs, 3);
            assert!(
                one == other,
                "{threads} threads diverged: {other:?} != {one:?}"
            );
        }
    }

    #[test]
    fn recording_captures_every_action() {
        let trace = sim().with_recording(true).run(FabricKind::Ocs);
        assert!(!trace.log.is_empty());
        // Time never goes backwards in the log.
        for pair in trace.log.windows(2) {
            assert!(pair[1].t >= pair[0].t, "{pair:?}");
        }
        // The log's placement count matches the counter.
        let placed = trace
            .log
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Placed { .. }))
            .count() as u64;
        assert_eq!(placed, trace.placements);
    }

    #[test]
    #[should_panic(expected = "torus_dims == 0")]
    fn rejects_switched_arm_on_torus_specs() {
        let _ = sim().run(FabricKind::Switched);
    }

    #[test]
    #[should_panic(expected = "probe slice")]
    fn rejects_bad_probe_slice() {
        let _ = sim().with_probe_slice(100).run(FabricKind::Ocs);
    }
}
