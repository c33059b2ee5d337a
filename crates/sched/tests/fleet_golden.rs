//! Golden-trace regression: pinned-seed fleet runs must reproduce
//! their committed fixtures *exactly* — integer event counts by
//! equality, derived f64 metrics by `to_bits` (the PR 6 pinning style).
//!
//! Two fixtures:
//!
//! * `fleet_golden_v4.txt` — one hot v4 OCS run, pinned since the DES
//!   was introduced.
//! * `fleet_golden_specs.txt` — every `specs/*.json` machine on both of
//!   its fabric arms for seeds 1–3 under a churn-heavy profile, plus one
//!   preemption-off run per spec and arm (seed 1) and one jobless (pure
//!   failure/repair) run per spec. Each run also pins a digest over its
//!   whole recorded event log (time bits, kind, busy chips, down hosts),
//!   so every trace bit of every run is covered.
//!
//! Beside them, [`GOODPUT_DIGESTS`] pins the Figure 4 goodput bits of
//! every committed spec on both arms, inline and without a regenerate
//! path: the fleet runs probe one slice size, the digests cover the
//! whole slice axis.
//!
//! Any change to event ordering, RNG stream layout, placement policy or
//! metric arithmetic shows up here as a bit diff. If the change to a
//! fleet trace is intentional, regenerate the fixtures with:
//!
//! ```text
//! FLEET_GOLDEN_REGEN=1 cargo test -p tpu-sched --test fleet_golden
//! ```
//!
//! and commit the new fixtures alongside the change that explains it.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use tpu_sched::{FleetSim, FleetTrace, GoodputSim, TraceEvent, TraceKind};
use tpu_spec::hash::fnv1a_64;
use tpu_spec::{FabricKind, FleetSpec, MachineSpec};

fn fixture_path(file: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures")).join(file)
}

fn committed_specs() -> Vec<(String, MachineSpec)> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs"));
    let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("specs/ directory exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 5,
        "expected the committed spec corpus, found {paths:?}"
    );
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            let text = fs::read_to_string(&p).expect("readable spec");
            (name, MachineSpec::from_json(&text).expect("valid spec"))
        })
        .collect()
}

/// The pinned run: short enough to stay fast in debug builds, hot
/// enough to exercise every event kind.
fn golden_run() -> FleetTrace {
    FleetSim::for_spec(&MachineSpec::v4(), 9_000.0, 20230401)
        .with_profile(FleetSpec {
            arrival_interval_s: 45.0,
            mean_duration_s: 350.0,
            mtbf_h: 5.0,
            mttr_h: 0.25,
            repair_slo_h: Some(1.0),
        })
        .with_recording(true)
        .run(FabricKind::Ocs)
}

fn snapshot(trace: &FleetTrace) -> BTreeMap<String, String> {
    let metrics = trace.metrics();
    let mut map = BTreeMap::new();
    let mut count = |k: &str, v: u64| {
        map.insert(k.to_string(), v.to_string());
    };
    count("events", trace.events);
    count("arrivals", trace.arrivals);
    count("placements", trace.placements);
    count("placements_production", trace.placements_production);
    count("placements_best_effort", trace.placements_best_effort);
    count("completions", trace.completions);
    count("preemptions", trace.preemptions);
    count("failure_kills", trace.failure_kills);
    count("rejected", trace.rejected);
    count("host_failures", trace.host_failures);
    count("host_repairs", trace.host_repairs);
    count("probes", trace.probes);
    count("left_in_queue", trace.left_in_queue);
    count("log_len", trace.log.len() as u64);
    let mut bits = |k: &str, v: f64| {
        map.insert(format!("{k}_bits"), v.to_bits().to_string());
    };
    bits("availability", metrics.availability);
    bits("goodput", metrics.goodput);
    bits("fragmentation", metrics.fragmentation);
    bits("utilization", metrics.utilization);
    bits("reconfig_overhead", metrics.reconfig_overhead);
    bits("mean_wait", metrics.mean_wait_s);
    bits("mean_wait_production", metrics.mean_wait_production_s);
    bits("mean_wait_best_effort", metrics.mean_wait_best_effort_s);
    bits("busy_chip_s", trace.busy_chip_s);
    bits("deliverable_chip_s", trace.deliverable_chip_s);
    bits("healthy_chip_s", trace.healthy_chip_s);
    bits("up_host_s", trace.up_host_s);
    bits("last_event_t", trace.log.last().map_or(0.0, |e| e.t));
    map
}

fn render(map: &BTreeMap<String, String>) -> String {
    let mut out = String::from(
        "# Pinned fleet-DES golden trace: v4 / OCS / seed 20230401.\n\
         # Regenerate with FLEET_GOLDEN_REGEN=1 (see fleet_golden.rs).\n",
    );
    for (k, v) in map {
        out.push_str(&format!("{k}={v}\n"));
    }
    out
}

/// FNV-1a 64 over every recorded event: `t.to_bits()`, a kind tag and
/// the kind's fields, `busy_chips` and `down_hosts`, each as a
/// little-endian `u64` word.
fn log_digest(log: &[TraceEvent]) -> u64 {
    let mut bytes = Vec::with_capacity(log.len() * 7 * 8);
    for e in log {
        let (tag, id, chips, production) = match e.kind {
            TraceKind::Arrival { job } => (0, job, 0, false),
            TraceKind::Rejected { job } => (1, job, 0, false),
            TraceKind::Placed {
                job,
                chips,
                production,
            } => (2, job, chips, production),
            TraceKind::Completed { job } => (3, job, 0, false),
            TraceKind::Preempted { job } => (4, job, 0, false),
            TraceKind::FailureKill { job } => (5, job, 0, false),
            TraceKind::HostFailure { host } => (6, host, 0, false),
            TraceKind::HostRepair { host } => (7, host, 0, false),
        };
        for word in [
            e.t.to_bits(),
            tag,
            u64::from(id),
            chips,
            u64::from(production),
            e.busy_chips,
            u64::from(e.down_hosts),
        ] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    fnv1a_64(&bytes)
}

/// A churn-heavy profile: offered load high enough to queue and
/// preempt, failures frequent enough that capacity probes, kills and
/// repairs all see real traffic within a short horizon.
fn hot_profile() -> FleetSpec {
    FleetSpec {
        arrival_interval_s: 30.0,
        mean_duration_s: 200.0,
        mtbf_h: 4.0,
        mttr_h: 0.2,
        repair_slo_h: Some(1.0),
    }
}

/// Both fabric arms a spec supports.
fn arms(spec: &MachineSpec) -> [FabricKind; 2] {
    if spec.torus_dims == 0 {
        [FabricKind::Static, FabricKind::Switched]
    } else {
        [FabricKind::Static, FabricKind::Ocs]
    }
}

/// Every pinned per-spec run, keyed `spec/arm/seedN` (hot profile),
/// `spec/arm/nopreempt` (hot profile, seed 1, preemption off) or
/// `spec/arm/jobless` (arrivals disabled), each snapshot carrying the
/// event-log digest.
fn spec_runs() -> BTreeMap<String, BTreeMap<String, String>> {
    let mut runs = BTreeMap::new();
    let mut pin = |id: String, trace: FleetTrace| {
        let mut snap = snapshot(&trace);
        snap.insert("log_digest".to_string(), log_digest(&trace.log).to_string());
        runs.insert(id, snap);
    };
    for (name, spec) in committed_specs() {
        // Bigger machines churn more per second; keep debug-mode
        // runtime bounded the way occupancy_equivalence does.
        let (units, _, _) = spec.scheduling_units();
        let horizon = if units > 256 { 4_000.0 } else { 12_000.0 };
        for seed in [1u64, 2, 3] {
            for fabric in arms(&spec) {
                let trace = FleetSim::for_spec(&spec, horizon, seed)
                    .with_profile(hot_profile())
                    .with_recording(true)
                    .run(fabric);
                pin(format!("{name}/{}/seed{seed}", fabric.label()), trace);
            }
        }
        // Without preemption a blocked production head stays blocked
        // until capacity changes: the scheduling pass's other branch.
        for fabric in arms(&spec) {
            let trace = FleetSim::for_spec(&spec, horizon, 1)
                .with_profile(hot_profile())
                .with_preemption(false)
                .with_recording(true)
                .run(fabric);
            pin(format!("{name}/{}/nopreempt", fabric.label()), trace);
        }
        let jobless = FleetSpec {
            arrival_interval_s: f64::INFINITY,
            ..hot_profile()
        };
        let fabric = arms(&spec)[1];
        let trace = FleetSim::for_spec(&spec, 20_000.0, 9)
            .with_profile(jobless)
            .with_recording(true)
            .run(fabric);
        pin(format!("{name}/{}/jobless", fabric.label()), trace);
    }
    runs
}

fn render_runs(runs: &BTreeMap<String, BTreeMap<String, String>>) -> String {
    let mut out = String::from(
        "# Pinned fleet-DES golden traces: every specs/*.json x both arms x seeds 1-3\n\
         # (hot profile) plus one jobless run per spec.\n\
         # Also one preemption-off run per spec x arm (hot profile, seed 1).\n\
         # Regenerate with FLEET_GOLDEN_REGEN=1 (see fleet_golden.rs).\n",
    );
    for (id, snap) in runs {
        out.push_str(&format!("[{id}]\n"));
        for (k, v) in snap {
            out.push_str(&format!("{k}={v}\n"));
        }
    }
    out
}

fn parse_runs(text: &str) -> BTreeMap<String, BTreeMap<String, String>> {
    let mut runs: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    let mut current = None;
    for line in text.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        if let Some(id) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            runs.insert(id.to_string(), BTreeMap::new());
            current = Some(id.to_string());
            continue;
        }
        let id = current
            .as_ref()
            .expect("key=value lines follow a [run] header");
        let (k, v) = line.split_once('=').expect("key=value fixture lines");
        runs.get_mut(id)
            .unwrap()
            .insert(k.to_string(), v.to_string());
    }
    runs
}

#[test]
fn pinned_seed_trace_matches_the_committed_fixture_exactly() {
    let observed = snapshot(&golden_run());
    let path = fixture_path("fleet_golden_v4.txt");
    if std::env::var_os("FLEET_GOLDEN_REGEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, render(&observed)).unwrap();
        return;
    }
    let committed = fs::read_to_string(&path)
        .expect("committed fixture exists; regenerate with FLEET_GOLDEN_REGEN=1");
    let mut expected = BTreeMap::new();
    for line in committed.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let (k, v) = line.split_once('=').expect("key=value fixture lines");
        expected.insert(k.to_string(), v.to_string());
    }
    assert_eq!(
        expected, observed,
        "the pinned trace drifted; if intentional, regenerate the fixture"
    );
    // The pinned run must itself be hot enough to mean something.
    let n: u64 = observed["events"].parse().unwrap();
    assert!(n > 1_000, "golden run too quiet: {n} events");
    assert!(observed["preemptions"].parse::<u64>().unwrap() > 0);
    assert!(observed["failure_kills"].parse::<u64>().unwrap() > 0);
}

/// The static-arm and reconfigurable-arm goodput bits, pinned per
/// committed spec: FNV-1a 64 over `GoodputSim::goodput(..).to_bits()`
/// (little-endian) at 32 trials, seed 2023, for each slice size of
/// [`goodput_slices`] × [`GOODPUT_AVAILABILITIES`] in that order. Written
/// once from the allocate-until-refused static trial and never
/// regenerated: any placement change on either arm shows up here.
const GOODPUT_DIGESTS: [(&str, &str, u64); 18] = [
    ("a100", "static", 0x3BAE77CC25AC1943),
    ("a100", "switched", 0x0B187CFF58D72518),
    ("h100", "static", 0x8583857ADEF8E9D4),
    ("h100", "switched", 0x908147225FF1A446),
    ("ipu-bow", "static", 0xC243238E8017A3B2),
    ("ipu-bow", "switched", 0xFE09DD4A1E3BF967),
    ("v2", "ocs", 0xAFA4D9317A9A3AC3),
    ("v2", "static", 0xB941E92938E5F1E7),
    ("v3", "ocs", 0x76609EA55876B3FB),
    ("v3", "static", 0x457F5F9E7CCFFA29),
    ("v3-ocs", "ocs", 0x76609EA55876B3FB),
    ("v3-ocs", "static", 0x457F5F9E7CCFFA29),
    ("v4", "ocs", 0x372467A321033759),
    ("v4", "static", 0x5DE4E894EE189082),
    ("v4-half", "ocs", 0xC99BC9B99138A3D4),
    ("v4-half", "static", 0xEED55D2F0E80639A),
    ("v4-ib", "static", 0xF34C8AFF4A8F9A48),
    ("v4-ib", "switched", 0x0B1F550A498B74FD),
];

const GOODPUT_AVAILABILITIES: [f64; 4] = [0.97, 0.99, 0.995, 0.999];

/// Every point of the Figure 4 slice axis on grids of at most 64
/// blocks; on the larger island grids (a100's 1 054-island rail,
/// v4-ib's 8×8×8) the points from 1/32 of the machine up, every other
/// one plus the full machine, so a debug build stays fast.
fn goodput_slices(sim: &GoodputSim) -> Vec<u64> {
    let axis = sim.slice_axis();
    let chips_per_block = u64::from(sim.model().chips_per_block());
    let blocks = u64::from(sim.model().blocks());
    if blocks <= 64 {
        return axis;
    }
    let big: Vec<u64> = axis
        .into_iter()
        .filter(|&chips| chips / chips_per_block * 32 >= blocks)
        .collect();
    let mut picked: Vec<u64> = big.iter().step_by(2).copied().collect();
    if picked.last() != big.last() {
        picked.extend(big.last());
    }
    picked
}

/// One digest per `(spec, arm)`, keyed by spec name and arm label.
fn goodput_digests() -> BTreeMap<(String, String), u64> {
    let mut out = BTreeMap::new();
    for (name, spec) in committed_specs() {
        let sim = GoodputSim::for_spec(&spec, 32, 2023);
        let slices = goodput_slices(&sim);
        for fabric in arms(&spec) {
            let mut bytes = Vec::new();
            for &chips in &slices {
                for availability in GOODPUT_AVAILABILITIES {
                    let g = sim.goodput(chips, availability, fabric);
                    bytes.extend_from_slice(&g.to_bits().to_le_bytes());
                }
            }
            out.insert((name.clone(), fabric.label().to_string()), fnv1a_64(&bytes));
        }
    }
    out
}

#[test]
fn every_spec_goodput_on_both_arms_matches_the_pinned_digests() {
    let observed = goodput_digests();
    let expected: BTreeMap<(String, String), u64> = GOODPUT_DIGESTS
        .iter()
        .map(|&(name, arm, d)| ((name.to_string(), arm.to_string()), d))
        .collect();
    assert_eq!(
        expected, observed,
        "goodput bits drifted from the pinned digests"
    );
}

#[test]
fn every_spec_arm_and_seed_matches_the_committed_fixture_exactly() {
    let observed = spec_runs();
    let path = fixture_path("fleet_golden_specs.txt");
    if std::env::var_os("FLEET_GOLDEN_REGEN").is_some() {
        fs::write(&path, render_runs(&observed)).unwrap();
        return;
    }
    let committed = fs::read_to_string(&path)
        .expect("committed fixture exists; regenerate with FLEET_GOLDEN_REGEN=1");
    let expected = parse_runs(&committed);
    assert_eq!(
        expected.keys().collect::<Vec<_>>(),
        observed.keys().collect::<Vec<_>>(),
        "the pinned run roster changed"
    );
    for (id, snap) in &observed {
        assert_eq!(
            &expected[id], snap,
            "{id}: the pinned trace drifted; if intentional, regenerate the fixture"
        );
    }
}
