//! The perf trajectory: times the Monte Carlo placement sims at fleet
//! scale and writes `BENCH_goodput.json` so per-PR performance is a
//! tracked artifact instead of an anecdote.
//!
//! ```sh
//! cargo run --release -p tpu-bench --bin perf_report                 # full (1000 trials)
//! cargo run --release -p tpu-bench --bin perf_report -- --trials 120 # CI smoke
//! cargo run --release -p tpu-bench --bin perf_report -- --check BENCH_goodput.json
//! cargo run --release -p tpu-bench --bin perf_report -- --check NEW.json --baseline OLD.json
//! ```
//!
//! Every bench runs a 4096-chip fleet: the v4 torus through both Figure 4
//! arms (OCS plugboard submit, static contiguous packing) plus the v4-ib
//! switched fleet, and the fleet DES on both v4 arms. The output is a JSON array of
//! `{bench, config, wall_s, trials_per_s, git_describe}` rows (format:
//! DESIGN.md §11); `--check` re-parses an emitted file, validates that
//! schema, requires the full bench roster, and asserts the relative
//! service floors (cache, keep-alive and sweep speedups over cold),
//! which is what the CI perf-smoke leg asserts. `--baseline OLD.json`
//! prints per-bench ratios against a previous report; combined with
//! `--check` it fails on any >2x throughput regression. Because the
//! emitted rows carry `git_describe` as provenance, writing a report
//! from a dirty tree is refused unless `--allow-dirty` is passed.

use std::time::Instant;
use tpu_sched::{FleetSim, GoodputSim};
use tpu_serve::{client, QueryCache, Server, ServiceState, SpecStore};
use tpu_spec::json::{self, JsonValue};
use tpu_spec::{FabricKind, FleetSpec, MachineSpec};

/// One timed bench: name, human-readable config, wall seconds, trials.
struct BenchRow {
    bench: &'static str,
    config: String,
    wall_s: f64,
    trials: u32,
}

impl BenchRow {
    fn trials_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            f64::from(self.trials) / self.wall_s
        } else {
            f64::INFINITY
        }
    }
}

fn time_goodput(
    bench: &'static str,
    spec: &MachineSpec,
    fabric: FabricKind,
    trials: u32,
    threads: usize,
) -> BenchRow {
    let sim = GoodputSim::for_spec(spec, trials, 2023).with_threads(threads);
    let (slice, avail) = (1024, 0.995);
    let start = Instant::now();
    let g = sim.goodput(slice, avail, fabric);
    let wall_s = start.elapsed().as_secs_f64();
    assert!((0.0..=1.0).contains(&g), "{bench}: goodput {g}");
    BenchRow {
        bench,
        config: format!(
            "{} {} chips, slice={slice}, avail={avail}, trials={trials}, threads={threads}",
            spec.generation,
            sim.total_chips()
        ),
        wall_s,
        trials,
    }
}

/// A fleet-DES throughput row: one seeded v4 run under a hot job mix,
/// reported in *events per second* (`trials` is the processed
/// event-queue count). At the default `--trials 1000` the horizon is
/// 30 simulated days, which clears a million events; CI smoke scales
/// the horizon down linearly.
fn time_fleet(
    bench: &'static str,
    spec: &MachineSpec,
    fabric: FabricKind,
    trials: u32,
) -> BenchRow {
    let horizon_s = 30.0 * 86_400.0 * (f64::from(trials) / 1000.0);
    let sim = FleetSim::for_spec(spec, horizon_s, 2023).with_profile(FleetSpec {
        arrival_interval_s: 2.5,
        mean_duration_s: 17.0,
        ..FleetSpec::reference()
    });
    let start = Instant::now();
    let trace = sim.run(fabric);
    let wall_s = start.elapsed().as_secs_f64();
    assert!(trace.completions > 0, "{bench}: no jobs completed");
    let events = u32::try_from(trace.events).expect("event count fits u32");
    BenchRow {
        bench,
        config: format!(
            "{} DES {} horizon={horizon_s:.0}s, arrival=2.5s, duration=17s, events={events}",
            spec.generation,
            fabric.label()
        ),
        wall_s,
        trials: events,
    }
}

/// The service rows: what-if queries through a real in-process
/// `tpu-serve` over TCP.
///
/// - `serve_whatif_cold`: every request a distinct cache key over a
///   fresh connection, so each pays connect + parse + Monte Carlo.
/// - `serve_whatif_cached`: one key repeated over fresh connections;
///   every request after the first is a cache hit.
/// - `serve_whatif_keepalive`: the same cached key repeated over ONE
///   persistent connection — what the cache buys once the transport
///   stops being re-paid per request.
/// - `serve_sweep`: one sweep request answering a 64-point cold grid,
///   reported in grid points per second (comparable to the cold row's
///   requests per second, since a cold request is one point).
///
/// `trials` is the request count (points for the sweep row); the
/// Monte Carlo depth follows `--trials`. The cached row is asserted to
/// beat the cold row — the floor is low because the OCS fast path made
/// cold recomputes nearly transport-bound; `--check` enforces the same
/// floors on the emitted file.
fn time_serve(mc_trials: u32) -> [BenchRow; 4] {
    let store = SpecStore::in_memory();
    store
        .put("v4", &MachineSpec::v4())
        .expect("in-memory put cannot fail");
    let state = ServiceState {
        store,
        cache: QueryCache::new(256),
    };
    let server = Server::start(state, "127.0.0.1:0", 4).expect("bind an ephemeral port");
    let addr = server.local_addr();
    let target = |seed: u32| {
        format!(
            "/specs/v4/whatif?availability=0.995&slice_chips=1024&trials={mc_trials}&seed={seed}"
        )
    };

    let cold_reqs: u32 = 16;
    let start = Instant::now();
    for seed in 0..cold_reqs {
        let resp = client::request(addr, "GET", &target(seed), None).expect("cold request");
        assert_eq!(resp.status, 200, "cold: {}", resp.body);
        assert_eq!(resp.header("x-cache"), Some("miss"), "cold keys must miss");
    }
    let cold_wall = start.elapsed().as_secs_f64();
    let cold = BenchRow {
        bench: "serve_whatif_cold",
        config: format!(
            "TPU v4 whatif over HTTP, {cold_reqs} distinct queries, mc_trials={mc_trials}"
        ),
        wall_s: cold_wall,
        trials: cold_reqs,
    };

    let cached_reqs: u32 = 512;
    let reference = client::request(addr, "GET", &target(0), None).expect("warm request");
    let start = Instant::now();
    for _ in 0..cached_reqs {
        let resp = client::request(addr, "GET", &target(0), None).expect("cached request");
        assert_eq!(resp.header("x-cache"), Some("hit"), "warm keys must hit");
        assert_eq!(resp.body, reference.body, "hits must be byte-identical");
    }
    let cached_wall = start.elapsed().as_secs_f64();
    let cached = BenchRow {
        bench: "serve_whatif_cached",
        config: format!("TPU v4 whatif over HTTP, 1 query repeated {cached_reqs} times"),
        wall_s: cached_wall,
        trials: cached_reqs,
    };

    // The keep-alive row: same cached key, one persistent connection.
    let keepalive_reqs: u32 = 512;
    let mut conn = client::Connection::open(addr).expect("open keep-alive connection");
    let start = Instant::now();
    for _ in 0..keepalive_reqs {
        let resp = conn
            .request("GET", &target(0), None)
            .expect("keep-alive request");
        assert_eq!(resp.header("x-cache"), Some("hit"), "warm keys must hit");
        assert_eq!(resp.body, reference.body, "hits must be byte-identical");
    }
    let keepalive_wall = start.elapsed().as_secs_f64();
    drop(conn);
    let keepalive = BenchRow {
        bench: "serve_whatif_keepalive",
        config: format!(
            "TPU v4 whatif over HTTP, 1 query repeated {keepalive_reqs} times, one connection"
        ),
        wall_s: keepalive_wall,
        trials: keepalive_reqs,
    };

    // The sweep row: one request, a cold 16x4 grid, none of whose
    // canonical keys collide with the rows above (seed 100).
    let availabilities: Vec<String> = (0..16).map(|i| format!("0.9{:02}", 80 + i)).collect();
    let sweep_target = format!(
        "/specs/v4/whatif/sweep?availability={}&slice_chips=256,512,1024,2048&trials={mc_trials}&seed=100",
        availabilities.join(",")
    );
    let sweep_points: u32 = 16 * 4;
    let start = Instant::now();
    let resp = client::request(addr, "GET", &sweep_target, None).expect("sweep request");
    let sweep_wall = start.elapsed().as_secs_f64();
    assert_eq!(resp.status, 200, "sweep: {}", truncate_body(&resp.body));
    assert_eq!(
        resp.header("x-cache"),
        Some("miss"),
        "sweep grid must be cold"
    );
    server.shutdown();
    let sweep = BenchRow {
        bench: "serve_sweep",
        config: format!("TPU v4 whatif sweep over HTTP, one 64-point grid, mc_trials={mc_trials}"),
        wall_s: sweep_wall,
        trials: sweep_points,
    };

    assert!(
        cached.trials_per_s() >= 1.5 * cold.trials_per_s(),
        "cache speedup regressed: cached {:.1} req/s vs cold {:.1} req/s",
        cached.trials_per_s(),
        cold.trials_per_s()
    );
    [cold, cached, keepalive, sweep]
}

fn truncate_body(body: &str) -> &str {
    &body[..body.len().min(200)]
}

/// Best-effort `git describe` for provenance; "unknown" offline.
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every bench a complete report must carry, in emission order.
const ROSTER: [&str; 9] = [
    "goodput_v4_ocs",
    "goodput_v4_static",
    "goodput_v4ib_switched",
    "fleet_des_v4_ocs",
    "fleet_des_v4_static",
    "serve_whatif_cold",
    "serve_whatif_cached",
    "serve_whatif_keepalive",
    "serve_sweep",
];

/// Relative service floors `--check` asserts: `(bench, reference,
/// min_ratio)` — bench's trials/s must clear `min_ratio` times the
/// reference's. Floors are deliberately loose (the point is catching
/// an order-of-magnitude regression, not calibrating machines): a
/// cache hit must beat a cold recompute, a keep-alive hit must beat it
/// clearly, and sweep grid points must land at least near cold
/// per-request throughput (amortization means they normally beat it).
const FLOORS: [(&str, &str, f64); 3] = [
    ("serve_whatif_cached", "serve_whatif_cold", 1.5),
    ("serve_whatif_keepalive", "serve_whatif_cold", 2.0),
    ("serve_sweep", "serve_whatif_cold", 0.7),
];

/// Parses an emitted report into `(bench, trials_per_s)` pairs,
/// validating the five-key row schema along the way.
fn load_report(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let value = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let JsonValue::Arr(rows) = value else {
        return Err(format!("{path}: top level must be a JSON array"));
    };
    if rows.is_empty() {
        return Err(format!("{path}: no bench rows"));
    }
    let mut parsed = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        for key in ["bench", "config", "git_describe"] {
            match row.key(key) {
                Some(JsonValue::Str(s)) if !s.is_empty() => {}
                _ => return Err(format!("{path}: row {i} missing string key '{key}'")),
            }
        }
        for key in ["wall_s", "trials_per_s"] {
            match row.key(key) {
                Some(JsonValue::Num(n)) if *n >= 0.0 => {}
                _ => return Err(format!("{path}: row {i} missing numeric key '{key}'")),
            }
        }
        let (Some(JsonValue::Str(bench)), Some(JsonValue::Num(rate))) =
            (row.key("bench"), row.key("trials_per_s"))
        else {
            unreachable!("validated above");
        };
        parsed.push((bench.clone(), *rate));
    }
    Ok(parsed)
}

fn rate_of(rows: &[(String, f64)], bench: &str) -> Option<f64> {
    rows.iter().find(|(b, _)| b == bench).map(|(_, r)| *r)
}

/// Validates an emitted report: schema, the full bench roster, and the
/// relative service floors.
fn check(path: &str) -> Result<usize, String> {
    let rows = load_report(path)?;
    for bench in ROSTER {
        if rate_of(&rows, bench).is_none() {
            return Err(format!("{path}: missing bench row '{bench}'"));
        }
    }
    for (bench, reference, min_ratio) in FLOORS {
        let (b, r) = (
            rate_of(&rows, bench).expect("roster-checked"),
            rate_of(&rows, reference).expect("roster-checked"),
        );
        if b < min_ratio * r {
            return Err(format!(
                "{path}: {bench} at {b:.1}/s is below {min_ratio}x {reference} ({r:.1}/s)"
            ));
        }
    }
    Ok(rows.len())
}

/// Prints per-bench throughput ratios of `rows` over `baseline_path`'s
/// rows; with `enforce`, fails on any bench regressing more than 2x.
fn compare_to_baseline(
    rows: &[(String, f64)],
    baseline_path: &str,
    enforce: bool,
) -> Result<(), String> {
    let baseline = load_report(baseline_path)?;
    let mut worst: Option<(String, f64)> = None;
    println!(
        "{:<24} {:>12} {:>12} {:>8}",
        "bench", "baseline/s", "now/s", "ratio"
    );
    for (bench, rate) in rows {
        let Some(base) = rate_of(&baseline, bench) else {
            println!("{bench:<24} {:>12} {rate:>12.1} {:>8}", "-", "new");
            continue;
        };
        let ratio = if base > 0.0 {
            rate / base
        } else {
            f64::INFINITY
        };
        println!("{bench:<24} {base:>12.1} {rate:>12.1} {ratio:>8.2}");
        if worst.as_ref().is_none_or(|(_, w)| ratio < *w) {
            worst = Some((bench.clone(), ratio));
        }
    }
    if enforce {
        if let Some((bench, ratio)) = worst {
            if ratio < 0.5 {
                return Err(format!(
                    "{bench} regressed to {ratio:.2}x of {baseline_path} (limit 0.5x)"
                ));
            }
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };

    let baseline = flag("--baseline");

    if let Some(path) = flag("--check") {
        match check(&path) {
            Ok(rows) => println!("{path}: {rows} bench rows, schema and floors ok"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
        if let Some(base) = baseline {
            let rows = load_report(&path).expect("validated by check above");
            if let Err(e) = compare_to_baseline(&rows, &base, true) {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
        return;
    }

    let trials: u32 = flag("--trials")
        .map(|v| v.parse().expect("--trials takes a positive integer"))
        .unwrap_or(1000);
    let threads: usize = flag("--threads")
        .map(|v| v.parse().expect("--threads takes an integer (0 = auto)"))
        .unwrap_or(0);
    let out = flag("--out").unwrap_or_else(|| "BENCH_goodput.json".to_string());

    // Reports carry `git_describe` as provenance; a "-dirty" stamp in
    // a committed BENCH file is meaningless, so refuse up front.
    let describe = git_describe();
    if describe.ends_with("-dirty") && !args.iter().any(|a| a == "--allow-dirty") {
        eprintln!(
            "refusing to write {out} from a dirty tree ({describe}): \
             commit first, or pass --allow-dirty for a throwaway run"
        );
        std::process::exit(2);
    }

    let v4 = MachineSpec::v4();
    let v4_ib = MachineSpec::v4_ib_hybrid();
    let [serve_cold, serve_cached, serve_keepalive, serve_sweep] = time_serve(trials);
    let rows = [
        time_goodput("goodput_v4_ocs", &v4, FabricKind::Ocs, trials, threads),
        time_goodput(
            "goodput_v4_static",
            &v4,
            FabricKind::Static,
            trials,
            threads,
        ),
        time_goodput(
            "goodput_v4ib_switched",
            &v4_ib,
            FabricKind::Switched,
            trials,
            threads,
        ),
        time_fleet("fleet_des_v4_ocs", &v4, FabricKind::Ocs, trials),
        time_fleet("fleet_des_v4_static", &v4, FabricKind::Static, trials),
        serve_cold,
        serve_cached,
        serve_keepalive,
        serve_sweep,
    ];

    let report = JsonValue::Arr(
        rows.iter()
            .map(|r| {
                JsonValue::Obj(vec![
                    ("bench".into(), JsonValue::Str(r.bench.into())),
                    ("config".into(), JsonValue::Str(r.config.clone())),
                    ("wall_s".into(), JsonValue::Num(r.wall_s)),
                    ("trials_per_s".into(), JsonValue::Num(r.trials_per_s())),
                    ("git_describe".into(), JsonValue::Str(describe.clone())),
                ])
            })
            .collect(),
    );
    std::fs::write(&out, format!("{report}\n")).expect("write bench report");
    check(&out).expect("emitted report must validate");

    println!(
        "{:<24} {:>10} {:>12}  config",
        "bench", "wall_s", "trials/s"
    );
    for r in &rows {
        println!(
            "{:<24} {:>10.3} {:>12.1}  {}",
            r.bench,
            r.wall_s,
            r.trials_per_s(),
            r.config
        );
    }
    println!("wrote {out} ({describe})");

    if let Some(base) = baseline {
        let named: Vec<(String, f64)> = rows
            .iter()
            .map(|r| (r.bench.to_string(), r.trials_per_s()))
            .collect();
        // Print-only here: machines differ; the hard gate is --check
        // --baseline on files from the same machine.
        if let Err(e) = compare_to_baseline(&named, &base, false) {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}
