//! The repository benchmark: what-if traffic through `tpu-serve` and
//! month-long fleet DES runs, measured end to end and per layer.
//!
//! ```sh
//! cargo run --offline --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hot --seed 1 --seconds 36 --trace 0
//! ```
//!
//! Run it from the repository root: it reads `specs/*.json`. One
//! process runs one workload and nothing else:
//!
//! - `serve_hot`: cached what-if queries over two keep-alive
//!   connections, so HTTP, canonicalization and cache lookup do all the
//!   work;
//! - `serve_cold`: unique v4 what-if queries over one connection, so
//!   every request runs the Monte Carlo and evicts from the full cache;
//! - `fleet_month`: offline `FleetSim::run` months of the v4 fleet on
//!   the OCS and static arms.
//!
//! `--trace 0` prints the end-to-end metrics: [`END_TO_END`] in the
//! result line, plus unscaled figures and the metrics only one workload
//! has (latency percentiles, DES events per second on each arm) as text
//! lines.
//! `--trace 1` replays the workload's seeded sequence in process with
//! spans around each call into a layer and prints the per-layer
//! metrics, writing the spans to `$CARGO_TARGET_DIR/perfbench-spans/`.
//! Every run checks its outputs; the last stdout line is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

mod fleet;
mod host;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};
use tpu_spec::consts;

/// One measured metric.
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations the timed phase attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// Output checks made outside the timed phase that failed.
    pub failed_checks: u64,
    /// The result line's metrics: [`END_TO_END`] (untraced run) or
    /// [`PER_LAYER`] (traced run).
    pub metrics: Vec<Metric>,
    /// Metrics only this workload has, printed by name but kept out of
    /// the result line, whose metrics every workload must report.
    pub details: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a result-line metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds a metric of this workload only.
    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.details.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds the [`END_TO_END`] metrics of an untraced run, CPU time
    /// scaled to the reference host, and the unscaled figures as
    /// details.
    pub fn end_to_end(&mut self, m: Measured) {
        let scale = host::to_reference(m.slice_s);
        self.metric("setup_s", m.setup_cpu_s * scale, "s");
        self.metric("peak_rss_mb", m.peak_rss_mb, "MB");
        self.metric("ops_per_ref_cpu_s", m.ops / (m.cpu_s * scale), "1/s");
        self.detail("host_slice_ms", m.slice_s / consts::MILLI, "ms");
        self.detail("setup_cpu_s", m.setup_cpu_s, "s");
        self.detail("ops_per_cpu_s", m.ops / m.cpu_s, "1/s");
    }
}

/// The end-to-end metrics every untraced run reports, whatever its
/// workload, with CPU time scaled to the reference host of [`host`]:
/// `setup_s` is the median CPU time of one set-up, all threads;
/// `ops_per_ref_cpu_s` counts operations per CPU second of the program
/// under test in the timed phase: what-if requests per second of server
/// CPU on `serve_*`, DES events per second of the simulating thread on
/// `fleet_month`. Being CPU time, neither sees how well work spreads
/// over threads or how long it waits: a change to the per-query trial
/// fan-out shows in the wall-clock lines and the traced
/// `sched.trials.fanout_us`, not here.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_ref_cpu_s", "1/s"),
];

/// An untraced run's figures as measured on this host.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// Median CPU seconds of one set-up.
    pub setup_cpu_s: f64,
    /// Peak resident memory.
    pub peak_rss_mb: f64,
    /// Operations the timed phase completed.
    pub ops: f64,
    /// CPU seconds the program under test used on them.
    pub cpu_s: f64,
    /// The host probe's mean CPU seconds per slice.
    pub slice_s: f64,
}

/// Fewest set-ups per run: `setup_s` is their median, which needs ten
/// on each side of it.
pub const SETUPS: usize = 21;

/// Set-ups run back to back until at least [`SETUPS`] have run and this
/// long has passed. `fleet_month`'s 21 set-ups take about a millisecond,
/// so one burst of host noise could slow them all and move the median
/// by a quarter; spread over half a second, a burst meets a few.
pub const SETUP_SPAN: Duration = Duration::from_millis(500);

/// Whether another set-up is due, given how many ran since `begin`.
pub fn more_setups(done: usize, begin: Instant) -> bool {
    done < SETUPS || begin.elapsed() < SETUP_SPAN
}

/// Every per-layer metric a traced run reports, with its unit. A layer
/// the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("serve.http.read_request_us", "us"),
    ("serve.store.get_us", "us"),
    ("serve.api.parse_us", "us"),
    ("serve.cache.get_us", "us"),
    ("serve.api.handle_us", "us"),
    ("serve.http.write_response_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.cache.insert_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("sched.goodput.static_us", "us"),
    ("sched.goodput.ocs_us", "us"),
    ("sched.trials.fanout_us", "us"),
    ("sched.goodput.place_static_us", "us"),
    ("des.ocs.events", "count"),
    ("des.ocs.arrivals", "count"),
    ("des.ocs.placements", "count"),
    ("des.ocs.rejected", "count"),
    ("des.ocs.preemptions", "count"),
    ("des.ocs.failure_kills", "count"),
    ("des.ocs.host_failures", "count"),
    ("des.ocs.host_repairs", "count"),
    ("des.ocs.probes", "count"),
    ("des.ocs.placements_per_arrival", "ratio"),
    ("des.ocs.run_s", "s"),
    ("des.ocs.churn_only_s", "s"),
    ("des.ocs.jobdraw_us", "us"),
    ("des.ocs.admit_us", "us"),
    ("des.ocs.probe_us", "us"),
    ("des.static.events", "count"),
    ("des.static.arrivals", "count"),
    ("des.static.placements", "count"),
    ("des.static.rejected", "count"),
    ("des.static.preemptions", "count"),
    ("des.static.failure_kills", "count"),
    ("des.static.host_failures", "count"),
    ("des.static.host_repairs", "count"),
    ("des.static.probes", "count"),
    ("des.static.placements_per_arrival", "ratio"),
    ("des.static.run_s", "s"),
    ("des.static.churn_only_s", "s"),
    ("des.static.jobdraw_us", "us"),
    ("des.static.admit_us", "us"),
    ("des.static.probe_us", "us"),
    ("setup.specs_s", "s"),
    ("setup.arms_s", "s"),
    ("setup.server_start_s", "s"),
    ("setup.prewarm_s", "s"),
];

/// Per-layer values keyed by metric name; [`PER_LAYER`] names missing
/// here read 0 in the result.
pub type Layers = BTreeMap<String, f64>;

/// Every [`PER_LAYER`] metric, in catalog order, read from `layers`,
/// which may name nothing outside the catalog.
pub fn layer_metrics(layers: &Layers) -> Result<Vec<Metric>, String> {
    if let Some(stray) = layers
        .keys()
        .find(|k| !PER_LAYER.iter().any(|&(name, _)| name == k.as_str()))
    {
        return Err(format!("layer metric {stray} is not in the catalog"));
    }
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.to_string(),
            value: layers.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect())
}

/// The parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload serve_hot|serve_cold|fleet_month \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        let raw = value(flag)?;
        raw.parse()
            .map_err(|_| format!("{flag} takes a non-negative integer, got {raw:?}"))
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: number("--seed")?,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

/// Where a traced run writes its spans.
pub fn spans_path(args: &Args) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("perfbench/target"));
    target
        .join("perfbench-spans")
        .join(format!("{}-seed{}.tsv", args.workload, args.seed))
}

/// Peak resident set of this process, MB (10^6 bytes), from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib * 1024.0 / consts::MEGA)
}

/// `clockid_t` values of the Linux CPU-time clocks.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Reads a CPU-time clock, in seconds, to the nanosecond.
fn cpu_clock_s(clock: i32) -> Result<f64, String> {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets), which is all the call writes.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return Err(format!("clock_gettime({clock}) failed"));
    }
    Ok(ts.sec as f64 + ts.nsec as f64 * consts::NANO)
}

/// CPU time this process has used on all its threads, exited ones
/// included. Unlike wall time it leaves out what the hypervisor stole
/// from the guest and every wait: on a 2-vCPU guest under steal,
/// `serve_cold`'s wall-clock rate fell to half for minutes at a time.
pub fn process_cpu_s() -> Result<f64, String> {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used.
pub fn thread_cpu_s() -> Result<f64, String> {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Formats a metric value for the JSON line: every digit Rust's
/// shortest round-trip form gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "serve_hot" => serve::run(serve::Mix::Hot, &args),
        "serve_cold" => serve::run(serve::Mix::Cold, &args),
        "fleet_month" => fleet::run(&args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench {}: {e}", args.workload);
            exit(1);
        }
    };
    let catalog: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
    if names != catalog.iter().map(|&(n, _)| n).collect::<Vec<_>>() {
        out.failed_checks += 1;
        out.notes
            .push(format!("reported metrics {names:?} are not the catalog's"));
    }
    if out.metrics.iter().any(|m| !m.value.is_finite()) {
        out.failed_checks += 1;
        out.notes
            .push("a metric is not a finite number".to_string());
    }

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace)
    );
    for note in &out.notes {
        println!("  {note}");
    }
    let failed_share = if out.attempted > 0 {
        out.failed as f64 / out.attempted as f64
    } else {
        0.0
    };
    println!(
        "  {:<36} {:>16} ratio  ({} failed of {} attempted, {} failed checks)",
        "failed_share", failed_share, out.failed, out.attempted, out.failed_checks
    );
    for m in out.metrics.iter().chain(&out.details) {
        println!("  {:<36} {:>16} {}", m.name, json_number(m.value), m.unit);
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct = out.failed == 0 && out.failed_checks == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed + out.failed_checks,
        metrics.join(", ")
    );
}
