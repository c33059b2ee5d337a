//! `fleet_month`: offline, single-threaded `FleetSim::run` months of the
//! v4 fleet on the OCS and static arms, under a hot job profile, pinned
//! to one CPU together with the host probe.

use crate::host::{self, Probe};
use crate::stats;
use crate::trace::Tracer;
use crate::{Args, Layers, Measured, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpu_core::JobSpec;
use tpu_ocs::SliceSpec;
use tpu_sched::goodput::{place_reconfigurable, place_static, slice_geometry};
use tpu_sched::{FleetSim, FleetTrace, PlannerModel, SliceMix};
use tpu_spec::{consts, FabricKind, FleetSpec, MachineSpec};
use tpu_topology::SliceShape;

/// Simulated horizon of one run: 30 days.
const MONTH_S: f64 = 30.0 * 86_400.0;
/// The months every run simulates, in this order, whatever its
/// `--seed` (which seeds the traced run's job and health draws): runs
/// then do the same work, and the allocator reaches the same peak.
const MONTH_SEEDS: [u64; 2] = [2023, 4096];
/// Fewest (OCS, static) pairs per run: each listed month once, then a
/// repeat whose trace must equal the first.
const MIN_PAIRS: usize = MONTH_SEEDS.len() + 1;
/// The two arms of the Figure 4 comparison, in run order.
const ARMS: [FabricKind; 2] = [FabricKind::Ocs, FabricKind::Static];
const SPEC_PATH: &str = "specs/v4.json";

/// Job draws per timed batch, and batches per arm.
const DRAW_BATCH: usize = 1024;
const DRAW_BATCHES: u64 = 200;
/// Fill-until-refused admission episodes per arm.
const ADMIT_EPISODES: u64 = 200;
/// Capacity probes per timed batch, and batches per arm.
const PROBE_BATCH: usize = 64;
const PROBE_BATCHES: u64 = 100;

/// The job profile `perf_report` times the DES with: an arrival every
/// 2.5 s, mean duration 17 s, the reference failure process.
fn hot_profile() -> FleetSpec {
    FleetSpec {
        arrival_interval_s: 2.5,
        mean_duration_s: 17.0,
        ..FleetSpec::reference()
    }
}

/// Loads the v4 spec and materializes both arms; returns the model and
/// the instants between the two phases.
fn set_up() -> Result<(Arc<PlannerModel>, [Instant; 3]), String> {
    let t0 = Instant::now();
    let text = std::fs::read_to_string(SPEC_PATH).map_err(|e| format!("{SPEC_PATH}: {e}"))?;
    let spec = MachineSpec::from_json(&text).map_err(|e| format!("{SPEC_PATH}: {e}"))?;
    let model = Arc::new(PlannerModel::for_spec(&spec));
    let t1 = Instant::now();
    model.static_arm();
    model.reconfigurable_arm();
    Ok((model, [t0, t1, Instant::now()]))
}

/// One month on one arm.
fn month(model: &Arc<PlannerModel>, arm: FabricKind, seed: u64, profile: FleetSpec) -> FleetTrace {
    FleetSim::for_model(Arc::clone(model), MONTH_S, seed)
        .with_profile(profile)
        .run(arm)
}

/// Runs `fleet_month`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Set-ups, months and the probe thread on one CPU, so the probe
    // measures the CPU the months run on. Unpinned, the run goes on with
    // a noisier scale.
    out.notes.push(match host::pin_to_current_cpu() {
        Ok(cpu) => format!("pinned to CPU {cpu} with the host probe"),
        Err(e) => format!("not pinned ({e}); the host probe may run on another CPU"),
    });
    let mut marks = Vec::new();
    let mut setup_cpu = Vec::new();
    let mut model = None;
    let begin = Instant::now();
    while crate::more_setups(marks.len(), begin) {
        let cpu0 = crate::process_cpu_s()?;
        let (m, t) = set_up()?;
        setup_cpu.push(crate::process_cpu_s()? - cpu0);
        marks.push(t);
        model = Some(m);
    }
    let model = model.ok_or("no set-up ran")?;
    let probe = Probe::start();

    let mut tracer = args.trace.then(Tracer::new);
    // Per arm: events and wall seconds; both arms: CPU seconds.
    let mut totals = [(0u64, Duration::ZERO); 2];
    let mut cpu_s = 0.0;
    let mut peak_rss_mb = 0.0;
    let mut first: BTreeMap<(usize, u64), FleetTrace> = BTreeMap::new();
    let mut repeats = 0;
    let start = Instant::now();
    let mut cycle = 0;
    let mut last_pair = Duration::ZERO;
    // Whole (OCS, static) pairs, so both arms run the same months, for
    // as long as another pair still fits in the time.
    while cycle < MIN_PAIRS || start.elapsed() + last_pair <= args.seconds {
        let seed = MONTH_SEEDS[cycle % MONTH_SEEDS.len()];
        let pair_start = Instant::now();
        for (a, arm) in ARMS.into_iter().enumerate() {
            let cpu0 = crate::thread_cpu_s()?;
            let t0 = Instant::now();
            let trace = month(&model, arm, seed, hot_profile());
            let t1 = Instant::now();
            cpu_s += crate::thread_cpu_s()? - cpu0;
            if let Some(tr) = tracer.as_mut() {
                tr.record(span(arm, "run"), cycle as u64, None, t0, t1);
            }
            out.attempted += 1;
            totals[a].0 += trace.events;
            totals[a].1 += t1 - t0;
            if trace.events == 0 || trace.completions == 0 {
                out.failed += 1;
            }
            match first.get(&(a, seed)) {
                Some(earlier) => {
                    repeats += 1;
                    if *earlier != trace {
                        out.failed += 1;
                        out.notes
                            .push(format!("{} seed {seed}: a repeat differs", arm.label()));
                    }
                }
                None => {
                    first.insert((a, seed), trace);
                }
            }
        }
        last_pair = pair_start.elapsed();
        cycle += 1;
        // Read at a fixed point: each further month can raise the peak
        // a little, as the allocator fragments.
        if cycle == MIN_PAIRS {
            peak_rss_mb = crate::peak_rss_mb()?;
        }
    }
    let slice_s = probe.stop()?;
    out.notes.push(format!(
        "{} months in {:.3} s ({} repeated (arm, seed) pairs, all compared)",
        out.attempted,
        start.elapsed().as_secs_f64(),
        repeats
    ));
    let rate = |a: usize| totals[a].0 as f64 / totals[a].1.as_secs_f64();

    if let Some(mut tracer) = tracer {
        let mut layers = Layers::new();
        for (a, arm) in ARMS.into_iter().enumerate() {
            let trace = first
                .get(&(a, MONTH_SEEDS[0]))
                .ok_or("first month missing")?;
            counts(&mut layers, arm, trace);
            let run = span(arm, "run");
            let runs: Vec<f64> = tracer
                .spans()
                .iter()
                .filter(|s| s.name == run)
                .map(|s| s.duration() as f64 * consts::NANO)
                .collect();
            layers.insert(key(arm, "run_s"), stats::mean(&runs).unwrap_or(0.0));
            let churn_profile = FleetSpec {
                arrival_interval_s: f64::INFINITY,
                ..hot_profile()
            };
            let churn = tracer.leaf(span(arm, "churn_only"), 0, None, || {
                month(&model, arm, MONTH_SEEDS[0], churn_profile)
            });
            if churn.arrivals != 0 || churn.host_failures == 0 {
                out.failed_checks += 1;
            }
            let churn_s = tracer
                .spans()
                .last()
                .map_or(0.0, |s| s.duration() as f64 * consts::NANO);
            layers.insert(key(arm, "churn_only_s"), churn_s);
            layers.insert(
                key(arm, "jobdraw_us"),
                jobdraw_us(&mut tracer, arm, args.seed),
            );
            layers.insert(key(arm, "admit_us"), admit_us(&mut tracer, &model, arm)?);
            layers.insert(
                key(arm, "probe_us"),
                probe_us(&mut tracer, &model, arm, args.seed),
            );
        }
        for (i, m) in marks.iter().enumerate() {
            let root = tracer.record("setup", i as u64, None, m[0], m[2]);
            tracer.record("setup.specs", i as u64, Some(root), m[0], m[1]);
            tracer.record("setup.arms", i as u64, Some(root), m[1], m[2]);
        }
        for (metric, phase) in [("setup.specs_s", 0), ("setup.arms_s", 1)] {
            let xs = marks
                .iter()
                .map(|m| (m[phase + 1] - m[phase]).as_secs_f64())
                .collect();
            layers.insert(metric.to_string(), stats::median(xs).unwrap_or(0.0));
        }
        let path = crate::spans_path(args);
        tracer
            .write_tsv(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        out.notes.push(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        ));
        out.metrics = crate::layer_metrics(&layers)?;
        return Ok(out);
    }

    let setup_wall = marks.iter().map(|m| (m[2] - m[0]).as_secs_f64()).collect();
    out.end_to_end(Measured {
        setup_cpu_s: stats::median(setup_cpu).ok_or("too few set-ups")?,
        peak_rss_mb,
        ops: (totals[0].0 + totals[1].0) as f64,
        cpu_s,
        slice_s,
    });
    out.detail(
        "setup_wall_s",
        stats::median(setup_wall).ok_or("too few set-ups")?,
        "s",
    );
    out.detail("des_ocs_events_per_s", rate(0), "1/s");
    out.detail("des_static_events_per_s", rate(1), "1/s");
    Ok(out)
}

/// The span name `des.<arm>.<what>`, for `what` among the month
/// (`run`), the churn-only month and the three layer probes.
fn span(arm: FabricKind, what: &str) -> &'static str {
    const SPANS: [&str; 10] = [
        "des.ocs.run",
        "des.ocs.churn_only",
        "des.ocs.jobdraw",
        "des.ocs.admit",
        "des.ocs.probe",
        "des.static.run",
        "des.static.churn_only",
        "des.static.jobdraw",
        "des.static.admit",
        "des.static.probe",
    ];
    let name = key(arm, what);
    SPANS
        .into_iter()
        .find(|s| *s == name)
        .unwrap_or("des.unnamed")
}

/// The per-arm metric name `des.<arm>.<what>`.
fn key(arm: FabricKind, what: &str) -> String {
    format!("des.{}.{what}", arm.label())
}

/// The exact `FleetTrace` counts of one month.
fn counts(layers: &mut Layers, arm: FabricKind, t: &FleetTrace) {
    for (what, v) in [
        ("events", t.events),
        ("arrivals", t.arrivals),
        ("placements", t.placements),
        ("rejected", t.rejected),
        ("preemptions", t.preemptions),
        ("failure_kills", t.failure_kills),
        ("host_failures", t.host_failures),
        ("host_repairs", t.host_repairs),
        ("probes", t.probes),
    ] {
        layers.insert(key(arm, what), v as f64);
    }
    let per_arrival = if t.arrivals > 0 {
        t.placements as f64 / t.arrivals as f64
    } else {
        0.0
    };
    layers.insert(key(arm, "placements_per_arrival"), per_arrival);
}

/// Per-call µs of the median timed batch of `calls` calls.
fn per_call_us(tracer: &Tracer, name: &str, calls: usize) -> f64 {
    let xs = tracer
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration() as f64 * consts::NANO / consts::MICRO / calls as f64)
        .collect();
    stats::median(xs).unwrap_or(0.0)
}

/// `SliceMix::sample`, the DES's job draw.
fn jobdraw_us(tracer: &mut Tracer, arm: FabricKind, seed: u64) -> f64 {
    let name = span(arm, "jobdraw");
    let mix = SliceMix::table2();
    let mut rng = StdRng::seed_from_u64(seed);
    for b in 0..DRAW_BATCHES {
        tracer.leaf(name, b, None, || {
            for _ in 0..DRAW_BATCH {
                black_box(mix.sample(&mut rng));
            }
        });
    }
    per_call_us(tracer, name, DRAW_BATCH)
}

/// A Table 2 shape rounded up to whole blocks, as the DES admits it:
/// the block box for the static arm and the chip shape the OCS arm
/// submits.
type Admission = ((u32, u32, u32), SliceShape);

fn table2_boxes(edge: u32) -> Result<Vec<Admission>, String> {
    SliceMix::table2()
        .entries()
        .iter()
        .map(|e| {
            let s = e.shape;
            let b = (
                s.x().div_ceil(edge),
                s.y().div_ceil(edge),
                s.z().div_ceil(edge),
            );
            let shape =
                SliceShape::new(b.0 * edge, b.1 * edge, b.2 * edge).map_err(|e| e.to_string())?;
            Ok((b, shape))
        })
        .collect()
}

/// Fabric admission: episodes that admit Table 2 shapes round-robin
/// until the first refusal, then release every one. Reports µs per
/// admitted job, refusal and release included.
fn admit_us(tracer: &mut Tracer, model: &PlannerModel, arm: FabricKind) -> Result<f64, String> {
    let boxes = table2_boxes(model.spec().block.edge.max(1))?;
    let name = span(arm, "admit");
    let mut cluster = model.static_arm().clone();
    let mut machine = model.reconfigurable_arm().clone();
    machine.set_deferred_wiring(true);
    let (mut admitted, mut busy) = (0u64, 0u64);
    for e in 0..ADMIT_EPISODES {
        let span = tracer.open(name, e, None);
        let mut next = e as usize % boxes.len();
        let n = match arm {
            FabricKind::Static => {
                let mut held = Vec::new();
                while let Ok(blocks) = cluster.allocate(boxes[next].0) {
                    held.push(blocks);
                    next = (next + 1) % boxes.len();
                }
                for blocks in &held {
                    cluster.release(blocks);
                }
                held.len()
            }
            _ => {
                let mut held = Vec::new();
                while let Ok(id) =
                    machine.submit(JobSpec::new("fleet", SliceSpec::regular(boxes[next].1)))
                {
                    held.push(id);
                    next = (next + 1) % boxes.len();
                }
                let n = held.len();
                for id in held {
                    machine.finish(id).map_err(|e| e.to_string())?;
                }
                n
            }
        };
        tracer.close(span);
        admitted += n as u64;
        busy += tracer.spans().get(span).map_or(0, |s| s.duration());
    }
    if admitted == 0 {
        return Err(format!("{name}: no job was admitted"));
    }
    Ok(busy as f64 * consts::NANO / consts::MICRO / admitted as f64)
}

/// Capacity probes through the exact placement functions the DES and
/// `GoodputSim` share, with block health drawn at the profile's
/// steady-state availability, on the DES's quarter-machine probe slice.
fn probe_us(tracer: &mut Tracer, model: &PlannerModel, arm: FabricKind, seed: u64) -> f64 {
    let name = span(arm, "probe");
    let blocks = model.blocks();
    let probe_chips = u64::from((blocks / 4).max(1)) * u64::from(model.chips_per_block());
    let (bbox, shape, needed) = slice_geometry(model.spec(), model.chips_per_block(), probe_chips);
    let p_block = hot_profile()
        .steady_availability()
        .powi(model.hosts_per_block() as i32);
    let mut cluster = model.static_arm().clone();
    let mut machine = model.reconfigurable_arm().clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut health: Vec<Vec<bool>> = vec![Vec::new(); PROBE_BATCH];
    for b in 0..PROBE_BATCHES {
        for h in health.iter_mut() {
            h.clear();
            h.extend((0..blocks).map(|_| rng.random::<f64>() < p_block));
        }
        tracer.leaf(name, b, None, || {
            for h in &health {
                let placed = match arm {
                    FabricKind::Static => place_static(&mut cluster, h, bbox, needed),
                    _ => place_reconfigurable(&mut machine, h, shape, needed),
                };
                black_box(placed);
            }
        });
    }
    per_call_us(tracer, name, PROBE_BATCH)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_span_has_a_name() {
        for arm in ARMS {
            for what in ["run", "churn_only", "jobdraw", "admit", "probe"] {
                assert_eq!(span(arm, what), key(arm, what));
            }
        }
    }
}
