//! `serve_hot` and `serve_cold`: closed-loop what-if traffic through an
//! in-process `tpu-serve` with two workers over loopback.
//!
//! Both workloads run whole rounds of a fixed template list, shuffled
//! per round by the seed, so every run has the same operation mix
//! whatever its seed or length. The end-to-end rate counts the server's
//! CPU only: the process's, less what the client threads and the host
//! probe used.

use crate::host::Probe;
use crate::stats;
use crate::trace::{self, Span, Tracer};
use crate::{Args, Layers, Measured, Outcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tpu_sched::goodput::{place_static, slice_geometry};
use tpu_sched::GoodputSim;
use tpu_serve::client::{self, Connection};
use tpu_serve::{api, http, QueryCache, Server, ServiceState, SpecStore, WhatIfQuery};
use tpu_spec::json::{self, JsonValue};
use tpu_spec::{consts, FabricKind, MachineSpec};

/// Which traffic mix a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Pre-warmed keys: every timed request is a cache hit.
    Hot,
    /// Unique seeds: every timed request misses and evicts.
    Cold,
}

/// Server worker threads: one per core of the 2-core host.
const WORKERS: usize = 2;
/// The binary's default cache size.
const CACHE_CAPACITY: usize = 256;
/// Where the committed specs live, relative to the repository root.
const SPECS_DIR: &str = "specs";
/// Rounds per measurement window. Throughput and latency percentiles
/// are medians over windows, so a burst of host noise moves one window,
/// not the result. A window is a fixed number of requests, so the
/// latency buffer it fills has the same size whatever the server's
/// speed: 6 600 requests hot, 128 cold, enough for a p90 with ten
/// samples above it.
const HOT_WINDOW_ROUNDS: usize = 100;
const COLD_WINDOW_ROUNDS: usize = 2;
const TOO_FEW_WINDOWS: &str = "too few measurement windows for a median; raise --seconds";

/// `(spec, arm)` pairs the hot keys spread over.
const HOT_ARMS: [(&str, FabricKind); 6] = [
    ("v4", FabricKind::Ocs),
    ("v4", FabricKind::Static),
    ("v3", FabricKind::Static),
    ("v3", FabricKind::Ocs),
    ("a100", FabricKind::Switched),
    ("a100", FabricKind::Static),
];
const HOT_AVAILABILITIES: [f64; 3] = [0.99, 0.995, 0.999];
const HOT_KEYS_PER_ARM: usize = 11;
/// Seeds the hot keys' Monte Carlo seeds.
const HOT_KEY_SEED: u64 = 2023;
/// Monte Carlo depth of the hot keys. Only the pre-warm pays it, and
/// the a100's static counterfactual costs about a millisecond a trial.
const HOT_TRIALS: u32 = 10;
/// Two keep-alive connections: with one, every request pays a
/// cross-core wake-up and throughput drops about fourfold.
const HOT_CONNECTIONS: usize = 2;

/// The Figure 4 grid the cold queries walk on v4.
const COLD_SLICES: [u64; 4] = [256, 512, 1024, 2048];
const COLD_AVAILABILITIES: [f64; 4] = [0.99, 0.993, 0.996, 0.999];
const COLD_TRIALS: u32 = 1000;
/// Static-arm requests per OCS-arm request. The static arm is the slow
/// mode, so p50 and p90 both fall inside it rather than in the gap
/// between the two modes.
const COLD_STATIC_PER_OCS: usize = 3;
/// One connection: each miss already fans its trials out over both
/// cores.
const COLD_CONNECTIONS: usize = 1;
/// Every Nth cold body is checked against the offline simulator.
const COLD_CHECK_EVERY: u64 = 32;

/// Ceiling on traced operations, so the span log stays small.
const REPLAY_MAX_OPS: u64 = 10_000;
/// `place_static` trials timed per static-arm replayed miss.
const PLACE_TRIALS_PER_OP: usize = 8;

/// One what-if question.
#[derive(Debug, Clone)]
struct Query {
    spec: &'static str,
    availability: f64,
    slice_chips: u64,
    fabric: FabricKind,
    trials: u32,
    seed: u64,
}

impl Query {
    fn params(&self) -> String {
        format!(
            "availability={}&slice_chips={}&fabric={}&trials={}&seed={}",
            self.availability,
            self.slice_chips,
            self.fabric.label(),
            self.trials,
            self.seed
        )
    }

    fn target(&self) -> String {
        format!("/specs/{}/whatif?{}", self.spec, self.params())
    }
}

/// An endless sequence of rounds: each round is every template once,
/// in a seeded shuffle. Cold streams give each query a fresh seed.
struct Stream {
    templates: Vec<Query>,
    fresh_seeds: bool,
    rng: StdRng,
    order: Vec<usize>,
    pos: usize,
}

impl Stream {
    fn new(templates: Vec<Query>, fresh_seeds: bool, seed: u64) -> Stream {
        let order = (0..templates.len()).collect::<Vec<_>>();
        Stream {
            pos: order.len(),
            templates,
            fresh_seeds,
            rng: StdRng::seed_from_u64(seed),
            order,
        }
    }

    fn round_done(&self) -> bool {
        self.pos == self.order.len()
    }

    fn next(&mut self) -> (usize, Query) {
        if self.round_done() {
            stats::shuffle(&mut self.rng, &mut self.order);
            self.pos = 0;
        }
        let i = self.order[self.pos];
        self.pos += 1;
        let mut q = self.templates[i].clone();
        if self.fresh_seeds {
            q.seed = self.rng.random();
        }
        (i, q)
    }
}

/// The hot keys: for each `(spec, arm)`, the first slice/availability
/// points over power-of-two block counts from 1/32 to 1/2 of the
/// machine, each with its own seed. Smaller slices would only make the
/// pre-warm slower: a one-island slice on the a100 places a thousand jobs
/// per trial. The keys' seeds come from [`HOT_KEY_SEED`], not `--seed`:
/// the pre-warm's Monte Carlo cost depends on them, and every run's
/// set-up should do the same work. `--seed` orders the requests.
fn hot_templates(store: &SpecStore) -> Result<Vec<Query>, String> {
    let mut rng = StdRng::seed_from_u64(HOT_KEY_SEED);
    let mut keys = Vec::new();
    for (spec, fabric) in HOT_ARMS {
        let entry = store
            .get(spec)
            .ok_or(format!("{SPECS_DIR}/{spec}.json is missing"))?;
        let chips_per_block = u64::from(entry.model.chips_per_block());
        let blocks = u64::from(entry.model.blocks());
        let points = (0..)
            .map(|i| 1u64 << i)
            .skip_while(|&b| b * 32 < blocks)
            .take_while(|&b| b * 2 <= blocks)
            .flat_map(|b| HOT_AVAILABILITIES.map(|a| (b * chips_per_block, a)));
        for (slice_chips, availability) in points.take(HOT_KEYS_PER_ARM) {
            keys.push(Query {
                spec,
                availability,
                slice_chips,
                fabric,
                trials: HOT_TRIALS,
                seed: rng.random(),
            });
        }
    }
    Ok(keys)
}

/// The cold round: every grid point once on the OCS arm and
/// [`COLD_STATIC_PER_OCS`] times on the static arm.
fn cold_templates() -> Vec<Query> {
    let mut round = Vec::new();
    for availability in COLD_AVAILABILITIES {
        for slice_chips in COLD_SLICES {
            let arms = std::iter::once(FabricKind::Ocs)
                .chain(std::iter::repeat_n(FabricKind::Static, COLD_STATIC_PER_OCS));
            for fabric in arms {
                round.push(Query {
                    spec: "v4",
                    availability,
                    slice_chips,
                    fabric,
                    trials: COLD_TRIALS,
                    seed: 0,
                });
            }
        }
    }
    round
}

/// Specs whose arms a mix queries.
fn mix_specs(mix: Mix) -> &'static [&'static str] {
    match mix {
        Mix::Hot => &["v4", "v3", "a100"],
        Mix::Cold => &["v4"],
    }
}

/// One set-up: its server, the pre-warm bodies (hot keys), and the
/// instants between its four phases.
struct SetUp {
    server: Server,
    bodies: Vec<String>,
    marks: [Instant; 5],
}

/// Loads the specs, materializes the queried arms, starts the server
/// and pre-warms it: the hot keys into the cache over HTTP, or (cold)
/// the cache filled with entries no request asks for, so every timed
/// insert evicts.
fn set_up(mix: Mix, hot_keys: &[Query]) -> Result<SetUp, String> {
    let t0 = Instant::now();
    let store = SpecStore::load_dir(Path::new(SPECS_DIR)).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    for name in mix_specs(mix) {
        let entry = store.get(name).ok_or(format!("spec {name} is missing"))?;
        entry.model.static_arm();
        entry.model.reconfigurable_arm();
    }
    let t2 = Instant::now();
    let state = ServiceState {
        store,
        cache: QueryCache::new(CACHE_CAPACITY),
    };
    let server = Server::start(state, "127.0.0.1:0", WORKERS).map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    let mut bodies = Vec::with_capacity(hot_keys.len());
    match mix {
        Mix::Hot => {
            let mut conn = Connection::open(server.local_addr()).map_err(|e| e.to_string())?;
            for q in hot_keys {
                let resp = conn
                    .request("GET", &q.target(), None)
                    .map_err(|e| format!("pre-warm {}: {e}", q.target()))?;
                if resp.status != 200 || resp.header("x-cache") != Some("miss") {
                    return Err(format!("pre-warm {}: status {}", q.target(), resp.status));
                }
                if resp.header("connection") == Some("close") {
                    conn = Connection::open(server.local_addr()).map_err(|e| e.to_string())?;
                }
                bodies.push(resp.body);
            }
        }
        Mix::Cold => {
            let state = server.state();
            let v4 = state.store.get("v4").ok_or("spec v4 is missing")?;
            let hash = v4.model.spec_hash();
            for i in 0..CACHE_CAPACITY {
                state.cache.insert(
                    hash,
                    &format!("whatif?prefill={i}"),
                    format!("{{\"prefill\":{i}}}\n"),
                );
            }
        }
    }
    let t4 = Instant::now();
    Ok(SetUp {
        server,
        bodies,
        marks: [t0, t1, t2, t3, t4],
    })
}

/// Runs set-ups while [`crate::more_setups`] and keeps the last one's
/// server. Returns it
/// with every set-up's phase instants and process CPU seconds.
type SetUps = (SetUp, Vec<[Instant; 5]>, Vec<f64>);

fn set_up_many(mix: Mix, hot_keys: &[Query]) -> Result<SetUps, String> {
    let mut marks = Vec::new();
    let mut cpu = Vec::new();
    let mut last: Option<SetUp> = None;
    let begin = Instant::now();
    while crate::more_setups(marks.len(), begin) {
        if let Some(prev) = last.take() {
            prev.server.shutdown();
        }
        let cpu0 = crate::process_cpu_s()?;
        let s = set_up(mix, hot_keys)?;
        cpu.push(crate::process_cpu_s()? - cpu0);
        marks.push(s.marks);
        last = Some(s);
    }
    Ok((last.ok_or("no set-up ran")?, marks, cpu))
}

/// One measurement window of a connection: whole rounds, so every
/// window has the workload's exact mix.
struct Window {
    requests: usize,
    seconds: f64,
    p50_ms: Option<f64>,
    p90_ms: Option<f64>,
}

impl Window {
    /// Closes a window over its latencies (sorted in place).
    fn close(latencies_ms: &mut [f64], seconds: f64) -> Window {
        latencies_ms.sort_by(f64::total_cmp);
        Window {
            requests: latencies_ms.len(),
            seconds,
            p50_ms: stats::percentile(latencies_ms, 50),
            p90_ms: stats::percentile(latencies_ms, 90),
        }
    }
}

/// What one connection's closed loop measured, with the stream it
/// draws from.
struct ConnRun {
    windows: Vec<Window>,
    attempted: u64,
    failed: u64,
    reconnects: u64,
    /// CPU seconds this client thread used.
    cpu_s: f64,
    /// Cold queries kept for the offline check, with the `goodput_bits`
    /// their bodies carried: a few bytes each, so the list hardly grows
    /// the process with the request rate.
    kept: Vec<(Query, Option<u64>)>,
    stream: Stream,
}

impl ConnRun {
    fn new(stream: Stream) -> ConnRun {
        ConnRun {
            windows: Vec::new(),
            attempted: 0,
            failed: 0,
            reconnects: 0,
            cpu_s: 0.0,
            kept: Vec::new(),
            stream,
        }
    }
}

/// Rounds per window of a mix.
fn window_rounds(mix: Mix) -> usize {
    match mix {
        Mix::Hot => HOT_WINDOW_ROUNDS,
        Mix::Cold => COLD_WINDOW_ROUNDS,
    }
}

/// One closed-loop connection: sends the stream's next request as soon
/// as the previous response is read. Requests are grouped into windows
/// of [`window_rounds`] whole rounds; the loop stops at the first window
/// boundary past the deadline at which the connection has enough windows
/// for a median, so a host slowed by its neighbours lengthens the phase
/// instead of failing the run. Latency runs from writing a request to
/// reading its full response. The checks that need no offline simulator
/// (status, `X-Cache`, the hot body against its pre-warm copy) run
/// between requests, outside that interval; cold answers wait for the
/// offline check after the phase.
fn drive(
    addr: SocketAddr,
    mix: Mix,
    mut run: ConnRun,
    expected: &[String],
    deadline: Instant,
) -> Result<ConnRun, String> {
    let cpu0 = crate::thread_cpu_s()?;
    let mut conn = Connection::open(addr).map_err(|e| e.to_string())?;
    let rounds_per_window = window_rounds(mix);
    let mut latencies_ms = Vec::with_capacity(rounds_per_window * run.stream.templates.len());
    let mut rounds = 0;
    let mut window_start = Instant::now();
    loop {
        let (i, q) = run.stream.next();
        let target = q.target();
        let start = Instant::now();
        let resp = conn.request("GET", &target, None);
        let elapsed = start.elapsed();
        run.attempted += 1;
        match resp {
            Ok(resp) => {
                latencies_ms.push(elapsed.as_secs_f64() / consts::MILLI);
                let ok = resp.status == 200
                    && match mix {
                        Mix::Hot => {
                            resp.header("x-cache") == Some("hit")
                                && expected.get(i).is_some_and(|b| *b == resp.body)
                        }
                        Mix::Cold => resp.header("x-cache") == Some("miss"),
                    };
                if !ok {
                    run.failed += 1;
                }
                // The server closes a connection after 1000 requests;
                // that is its policy, not a failure.
                if resp.header("connection") == Some("close") {
                    conn = Connection::open(addr).map_err(|e| e.to_string())?;
                    run.reconnects += 1;
                }
                if mix == Mix::Cold && run.attempted.is_multiple_of(COLD_CHECK_EVERY) {
                    run.kept.push((q, goodput_bits(&resp.body)));
                }
            }
            Err(_) => {
                run.failed += 1;
                conn = Connection::open(addr).map_err(|e| e.to_string())?;
                run.reconnects += 1;
            }
        }
        if !run.stream.round_done() {
            continue;
        }
        rounds += 1;
        if rounds < rounds_per_window {
            continue;
        }
        let seconds = window_start.elapsed().as_secs_f64();
        run.windows.push(Window::close(&mut latencies_ms, seconds));
        latencies_ms.clear();
        rounds = 0;
        if Instant::now() >= deadline && run.windows.len() >= stats::MEDIAN_MIN_SAMPLES {
            break;
        }
        window_start = Instant::now();
    }
    run.cpu_s = crate::thread_cpu_s()? - cpu0;
    Ok(run)
}

/// The closed-loop phase over every connection of the mix.
struct Phase {
    /// Requests completed per second: each connection's median window
    /// rate, summed over connections.
    throughput_rps: f64,
    /// Median over every window of the window's p50 and p90.
    p50_ms: f64,
    p90_ms: f64,
    windows: usize,
    completed: usize,
    attempted: u64,
    failed: u64,
    reconnects: u64,
    wall: Duration,
    /// CPU seconds the server used in the phase: the process's, less
    /// what the client threads and the host probe used.
    server_cpu_s: f64,
    kept: Vec<(Query, Option<u64>)>,
    streams: Vec<Stream>,
}

fn run_phase(
    addr: SocketAddr,
    mix: Mix,
    streams: Vec<Stream>,
    expected: &[String],
    length: Duration,
    probe: &Probe,
) -> Result<Phase, String> {
    let cpu0 = crate::process_cpu_s()?;
    let probe0 = probe.reading();
    let start = Instant::now();
    let deadline = start + length;
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|stream| {
                scope.spawn(move || drive(addr, mix, ConnRun::new(stream), expected, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let wall = start.elapsed();
    let process_cpu_s = crate::process_cpu_s()? - cpu0 - (probe.reading().cpu_s - probe0.cpu_s);
    let mut phase = Phase {
        throughput_rps: 0.0,
        p50_ms: 0.0,
        p90_ms: 0.0,
        windows: 0,
        completed: 0,
        attempted: 0,
        failed: 0,
        reconnects: 0,
        wall,
        server_cpu_s: process_cpu_s,
        kept: Vec::new(),
        streams: Vec::new(),
    };
    let (mut p50s, mut p90s) = (Vec::new(), Vec::new());
    for run in runs {
        let rates = run
            .windows
            .iter()
            .map(|w| w.requests as f64 / w.seconds)
            .collect();
        phase.throughput_rps += stats::median(rates).ok_or(TOO_FEW_WINDOWS)?;
        phase.windows += run.windows.len();
        phase.completed += run.windows.iter().map(|w| w.requests).sum::<usize>();
        p50s.extend(run.windows.iter().filter_map(|w| w.p50_ms));
        p90s.extend(run.windows.iter().filter_map(|w| w.p90_ms));
        phase.attempted += run.attempted;
        phase.failed += run.failed;
        phase.reconnects += run.reconnects;
        phase.server_cpu_s -= run.cpu_s;
        phase.kept.extend(run.kept);
        phase.streams.push(run.stream);
    }
    phase.p50_ms = stats::median(p50s).ok_or(TOO_FEW_WINDOWS)?;
    phase.p90_ms = stats::median(p90s).ok_or(TOO_FEW_WINDOWS)?;
    Ok(phase)
}

/// `(hits, misses)` from `GET /stats`.
fn cache_stats(addr: SocketAddr) -> Result<(f64, f64), String> {
    let resp = client::request(addr, "GET", "/stats", None).map_err(|e| e.to_string())?;
    let doc = json::parse(&resp.body).map_err(|e| e.to_string())?;
    let num = |k: &str| match doc.key(k) {
        Some(JsonValue::Num(n)) => Ok(*n),
        _ => Err(format!("/stats has no {k}")),
    };
    Ok((num("cache_hits")?, num("cache_misses")?))
}

/// The `goodput_bits` field of a what-if body.
fn goodput_bits(body: &str) -> Option<u64> {
    match json::parse(body).ok()?.key("goodput_bits")? {
        JsonValue::Str(hex) => u64::from_str_radix(hex.strip_prefix("0x")?, 16).ok(),
        _ => None,
    }
}

/// Checks each kept cold answer against the offline simulator; returns
/// the number that differ.
fn verify_cold(kept: &[(Query, Option<u64>)]) -> Result<u64, String> {
    let path = format!("{SPECS_DIR}/v4.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let spec = MachineSpec::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut wrong = 0;
    for (q, bits) in kept {
        let offline = GoodputSim::for_spec(&spec, q.trials, q.seed).goodput(
            q.slice_chips,
            q.availability,
            q.fabric,
        );
        if *bits != Some(offline.to_bits()) {
            wrong += 1;
        }
    }
    Ok(wrong)
}

/// Runs `serve_hot` or `serve_cold`.
pub fn run(mix: Mix, args: &Args) -> Result<Outcome, String> {
    let hot_keys = match mix {
        Mix::Hot => {
            let store = SpecStore::load_dir(Path::new(SPECS_DIR)).map_err(|e| e.to_string())?;
            hot_templates(&store)?
        }
        Mix::Cold => Vec::new(),
    };
    let (setup, marks, setup_cpu) = set_up_many(mix, &hot_keys)?;
    let probe = Probe::start();
    let addr = setup.server.local_addr();
    let streams: Vec<Stream> = match mix {
        Mix::Hot => (0..HOT_CONNECTIONS)
            .map(|c| Stream::new(hot_keys.clone(), false, args.seed ^ (0x5EED << c)))
            .collect(),
        Mix::Cold => (0..COLD_CONNECTIONS)
            .map(|c| Stream::new(cold_templates(), true, args.seed ^ (0xC01D << c)))
            .collect(),
    };
    let mut out = Outcome::default();
    let phase_length = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let (hits0, misses0) = cache_stats(addr)?;
    let phase = run_phase(addr, mix, streams, &setup.bodies, phase_length, &probe)?;
    // Before the offline check, whose simulators are not the server's.
    let peak_rss_mb = crate::peak_rss_mb()?;
    let (hits1, misses1) = cache_stats(addr)?;
    let (hits, misses) = (hits1 - hits0, misses1 - misses0);
    out.attempted = phase.attempted;
    out.failed = phase.failed;
    // The cache counters must agree with what each workload claims.
    let stray = match mix {
        Mix::Hot => misses,
        Mix::Cold => hits,
    };
    if stray != 0.0 {
        out.failed_checks += 1;
        out.notes
            .push(format!("cache counted {hits} hits and {misses} misses"));
    }
    let wrong = verify_cold(&phase.kept)?;
    out.failed_checks += wrong;

    let setup_wall: Vec<f64> = marks.iter().map(|m| (m[4] - m[0]).as_secs_f64()).collect();
    let (p50, p90) = (phase.p50_ms, phase.p90_ms);
    out.notes.push(format!(
        "{} requests in {:.3} s over {} connection(s), {} reconnects at the server's cap; \
         {} windows; {} cold bodies checked offline, {wrong} wrong",
        phase.completed,
        phase.wall.as_secs_f64(),
        phase.streams.len(),
        phase.reconnects,
        phase.windows,
        phase.kept.len(),
    ));

    if args.trace {
        let mut tracer = Tracer::new();
        record_setups(&mut tracer, &marks);
        let mut stream = phase
            .streams
            .into_iter()
            .next()
            .ok_or("no stream to replay")?;
        let state = Arc::clone(setup.server.state());
        let deadline = Instant::now() + (args.seconds - phase_length);
        let replay = replay(
            &state,
            mix,
            &mut stream,
            &setup.bodies,
            deadline,
            addr,
            &mut tracer,
            args.seed,
        )?;
        out.attempted += replay.ops;
        out.failed += replay.failed;
        out.failed_checks += replay.failed_checks;
        setup.server.shutdown();
        probe.stop()?;
        let path = crate::spans_path(args);
        tracer
            .write_tsv(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let mut layers = layer_values(tracer.spans(), &marks);
        let hit_ratio = if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        };
        layers.insert("serve.cache.hit_ratio".to_string(), hit_ratio);
        let on_path = [
            "serve.http.read_request_us",
            "serve.api.handle_us",
            "serve.http.write_response_us",
        ];
        let layer_sum: f64 = on_path.iter().filter_map(|&k| layers.get(k)).sum();
        layers.insert(
            "serve.transport_us".to_string(),
            transport_us(p50 * consts::MILLI / consts::MICRO, layer_sum),
        );
        out.notes.push(format!(
            "{} replayed operations, {} spans written to {}",
            replay.ops,
            tracer.spans().len(),
            path.display()
        ));
        out.metrics = crate::layer_metrics(&layers)?;
        return Ok(out);
    }

    setup.server.shutdown();
    out.end_to_end(Measured {
        setup_cpu_s: stats::median(setup_cpu).ok_or("too few set-ups")?,
        peak_rss_mb,
        ops: phase.completed as f64,
        cpu_s: phase.server_cpu_s,
        slice_s: probe.stop()?,
    });
    out.detail(
        "setup_wall_s",
        stats::median(setup_wall).ok_or("too few set-ups")?,
        "s",
    );
    out.detail("throughput_rps", phase.throughput_rps, "1/s");
    out.detail("latency_p50_ms", p50, "ms");
    out.detail("latency_p90_ms", p90, "ms");
    Ok(out)
}

/// The residual of the end-to-end median that no on-path layer
/// accounts for: socket writes and reads, wake-ups and client parsing.
pub fn transport_us(e2e_p50_us: f64, on_path_layers_us: f64) -> f64 {
    e2e_p50_us - on_path_layers_us
}

/// Adds each set-up's phases to the span log.
fn record_setups(tracer: &mut Tracer, marks: &[[Instant; 5]]) {
    const PHASES: [&str; 4] = [
        "setup.specs",
        "setup.arms",
        "setup.server_start",
        "setup.prewarm",
    ];
    for (i, m) in marks.iter().enumerate() {
        let root = tracer.record("setup", i as u64, None, m[0], m[4]);
        for (p, name) in PHASES.iter().enumerate() {
            tracer.record(name, i as u64, Some(root), m[p], m[p + 1]);
        }
    }
}

/// What the traced replay did.
struct Replay {
    ops: u64,
    failed: u64,
    failed_checks: u64,
}

/// Replays the workload's sequence in process: each operation as the
/// server runs it (`read_request`, `handle`, `write_response`), then
/// the calls `handle` makes, one at a time (`SpecStore::get`, parse
/// and canonical key, `QueryCache::get` and, cold, `insert`), and on a
/// cold miss the Monte Carlo it runs, at the default thread count and
/// on one thread, plus `place_static` trials.
#[allow(clippy::too_many_arguments)]
fn replay(
    state: &ServiceState,
    mix: Mix,
    stream: &mut Stream,
    expected: &[String],
    deadline: Instant,
    addr: SocketAddr,
    tracer: &mut Tracer,
    seed: u64,
) -> Result<Replay, String> {
    let mut out = Replay {
        ops: 0,
        failed: 0,
        failed_checks: 0,
    };
    let v4 = state.store.get("v4").ok_or("spec v4 is missing")?;
    let mut cluster = v4.model.static_arm().clone();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7ACE);
    let mut healthy = Vec::new();
    let mut wire = Vec::with_capacity(1024);
    while !(stream.round_done() && (Instant::now() >= deadline || out.ops >= REPLAY_MAX_OPS)) {
        let (i, q) = stream.next();
        out.ops += 1;
        let op = out.ops;
        let raw = format!(
            "GET {} HTTP/1.1\r\nHost: {addr}\r\nConnection: keep-alive\r\n\r\n",
            q.target()
        );
        let root = tracer.open("serve.request", op, None);
        let req = tracer.leaf("serve.http.read_request", op, Some(root), || {
            http::read_request(&mut raw.as_bytes())
        });
        let Ok(req) = req else {
            tracer.close(root);
            out.failed += 1;
            continue;
        };
        let resp = tracer.leaf("serve.api.handle", op, Some(root), || {
            api::handle(state, &req)
        });
        wire.clear();
        let extras: Vec<(&str, &str)> = resp.x_cache.map(|v| ("X-Cache", v)).into_iter().collect();
        let written = tracer.leaf("serve.http.write_response", op, Some(root), || {
            http::write_response(&mut wire, resp.status, &resp.body, req.keep_alive, &extras)
        });
        tracer.close(root);
        let ok = written.is_ok()
            && resp.status == 200
            && match mix {
                Mix::Hot => resp.x_cache == Some("hit") && expected.get(i) == Some(&resp.body),
                Mix::Cold => resp.x_cache == Some("miss"),
            };
        if !ok {
            out.failed += 1;
        }

        let parts = tracer.open("serve.layers", op, None);
        let entry = tracer.leaf("serve.store.get", op, Some(parts), || {
            state.store.get(q.spec)
        });
        let Some(entry) = entry else {
            tracer.close(parts);
            out.failed += 1;
            continue;
        };
        let params = q.params();
        let parsed = tracer.leaf("serve.api.parse", op, Some(parts), || {
            WhatIfQuery::parse(&entry.model, &params).map(|w| {
                let key = w.canonical_key();
                (w, key)
            })
        });
        let Ok((parsed, key)) = parsed else {
            tracer.close(parts);
            out.failed += 1;
            continue;
        };
        let hash = entry.model.spec_hash();
        // A cold lookup must miss: `handle` has just cached this query,
        // so look up (and then insert) the same query under a seed no
        // request uses.
        let key = match mix {
            Mix::Hot => key,
            Mix::Cold => WhatIfQuery {
                seed: rng.random(),
                ..parsed
            }
            .canonical_key(),
        };
        let cached = tracer.leaf("serve.cache.get", op, Some(parts), || {
            state.cache.get(hash, &key)
        });
        if cached.is_some() != (mix == Mix::Hot) {
            out.failed_checks += 1;
        }
        if mix == Mix::Cold {
            let body = resp.body.clone();
            tracer.leaf("serve.cache.insert", op, Some(parts), || {
                state.cache.insert(hash, &key, body)
            });
        }
        tracer.close(parts);
        if mix == Mix::Hot {
            continue;
        }

        let sim = GoodputSim::for_model(Arc::clone(&entry.model), q.trials, q.seed);
        let name = match q.fabric {
            FabricKind::Static => "sched.goodput.static",
            _ => "sched.goodput.ocs",
        };
        let fanned = tracer.leaf(name, op, None, || {
            sim.goodput(q.slice_chips, q.availability, q.fabric)
        });
        let one = sim.clone().with_threads(1);
        let single = tracer.leaf("sched.trials.one_thread", op, None, || {
            one.goodput(q.slice_chips, q.availability, q.fabric)
        });
        if fanned.to_bits() != single.to_bits()
            || goodput_bits(&resp.body) != Some(fanned.to_bits())
        {
            out.failed_checks += 1;
        }
        if q.fabric == FabricKind::Static {
            let model = &entry.model;
            let (bbox, _, blocks_needed) =
                slice_geometry(model.spec(), model.chips_per_block(), q.slice_chips);
            let p_block = q.availability.powi(model.hosts_per_block() as i32);
            for _ in 0..PLACE_TRIALS_PER_OP {
                healthy.clear();
                healthy.extend((0..model.blocks()).map(|_| rng.random::<f64>() < p_block));
                let placed = tracer.leaf("sched.goodput.place_static", op, None, || {
                    place_static(&mut cluster, &healthy, bbox, blocks_needed)
                });
                std::hint::black_box(placed);
            }
        }
    }
    Ok(out)
}

/// Per-layer medians from the span log, µs (set-up phases in s).
fn layer_values(spans: &[Span], marks: &[[Instant; 5]]) -> Layers {
    let selfs = trace::self_times(spans);
    let us = |name: &str| -> f64 {
        let xs: Vec<f64> = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64 * consts::NANO / consts::MICRO)
            .collect();
        stats::median(xs).unwrap_or(0.0)
    };
    let mut layers = Layers::new();
    for span in [
        "serve.http.read_request",
        "serve.store.get",
        "serve.api.parse",
        "serve.cache.get",
        "serve.api.handle",
        "serve.http.write_response",
        "serve.cache.insert",
        "sched.goodput.static",
        "sched.goodput.ocs",
        "sched.goodput.place_static",
    ] {
        layers.insert(format!("{span}_us"), us(span));
    }
    // Fan-out: the same query at the default thread count minus on one
    // thread, per operation.
    let mut single = std::collections::BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "sched.trials.one_thread") {
        single.insert(s.op, s.duration());
    }
    let fanout: Vec<f64> = spans
        .iter()
        .filter(|s| s.name.starts_with("sched.goodput.") && s.name != "sched.goodput.place_static")
        .filter_map(|s| {
            let one = *single.get(&s.op)?;
            Some((s.duration() as f64 - one as f64) * consts::NANO / consts::MICRO)
        })
        .collect();
    layers.insert(
        "sched.trials.fanout_us".to_string(),
        stats::median(fanout).unwrap_or(0.0),
    );
    for (metric, phase) in [
        ("setup.specs_s", 0),
        ("setup.arms_s", 1),
        ("setup.server_start_s", 2),
        ("setup.prewarm_s", 3),
    ] {
        let xs = marks
            .iter()
            .map(|m| (m[phase + 1] - m[phase]).as_secs_f64())
            .collect();
        layers.insert(metric.to_string(), stats::median(xs).unwrap_or(0.0));
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_is_what_the_on_path_layers_leave() {
        assert_eq!(transport_us(30.0, 2.5 + 5.0 + 0.5), 22.0);
        // On a cold miss the handler is nearly the whole request.
        assert!(transport_us(2500.0, 2490.0) > 0.0);
        assert!(transport_us(2500.0, 2510.0) < 0.0);
    }

    #[test]
    fn cold_rounds_keep_one_ocs_request_in_four() {
        let round = cold_templates();
        assert_eq!(round.len(), 64);
        let ocs = round.iter().filter(|q| q.fabric == FabricKind::Ocs).count();
        assert_eq!(ocs * (COLD_STATIC_PER_OCS + 1), round.len());
    }

    #[test]
    fn streams_repeat_the_same_mix_every_round() {
        let mut s = Stream::new(cold_templates(), true, 9);
        let mut first: Vec<usize> = (0..64).map(|_| s.next().0).collect();
        assert!(s.round_done());
        let mut second: Vec<usize> = (0..64).map(|_| s.next().0).collect();
        assert_ne!(first, second, "rounds are reshuffled");
        first.sort_unstable();
        second.sort_unstable();
        assert_eq!(first, second);
        assert_eq!(first, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn goodput_bits_reads_the_wire_field() {
        let body = "{\"goodput\":0.5,\"goodput_bits\":\"0x3fe0000000000000\"}\n";
        assert_eq!(goodput_bits(body), Some(0.5f64.to_bits()));
        assert_eq!(goodput_bits("{}"), None);
    }
}
