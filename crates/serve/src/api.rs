//! Routing, query parsing and response formatting.
//!
//! Every endpoint body is built through `tpu_spec::json::JsonValue`
//! with fields in a fixed order, so a response is a *pure function of
//! the canonical query* — the property the CI smoke and concurrency
//! gates compare byte-for-byte, and the reason cache hits are
//! indistinguishable from recomputes (the `X-Cache` response *header*
//! carries hit/miss so the body stays identical either way).
//!
//! Monte Carlo endpoints (`whatif`, each grid point of `whatif/sweep`,
//! and `fleet`) answer through the LRU [`QueryCache`] keyed by
//! `(spec_hash, canonical_query)`; collective quotes are computed fresh
//! every time. Numeric
//! results carry both the JSON number and its IEEE-754 bit pattern
//! (`*_bits`), making bit-identity with the offline
//! `GoodputSim::goodput` / `repro --spec` paths checkable from the
//! wire. Endpoint shapes and error codes: docs/service-api.md.

use crate::cache::QueryCache;
use crate::http::{query_params, Request};
use crate::store::{SpecEntry, SpecStore, StoreError};
use std::borrow::Cow;
use std::sync::Arc;
use tpu_core::{Collective, JobSpec};
use tpu_ocs::SliceSpec;
use tpu_sched::{FleetSim, GoodputSim, PlannerModel};
use tpu_spec::json::JsonValue;
use tpu_spec::{FabricKind, MachineSpec};
use tpu_topology::SliceShape;

/// Most Monte Carlo trials a single what-if query may request.
pub const MAX_TRIALS: u32 = 20_000;
/// Most grid points one what-if sweep may request.
pub const MAX_SWEEP_POINTS: usize = 64;
/// Default Monte Carlo trials per what-if query.
pub const DEFAULT_TRIALS: u32 = 200;
/// Default RNG seed (the paper's year, like the offline reports).
pub const DEFAULT_SEED: u64 = 2023;
/// Default collective payload: 1 GiB.
pub const DEFAULT_COLLECTIVE_BYTES: u64 = 1 << 30;
/// Longest fleet-DES horizon a query may request, days.
pub const MAX_HORIZON_DAYS: f64 = 60.0;
/// Most fleet-DES trials a single query may request.
pub const MAX_FLEET_TRIALS: u32 = 32;
/// Most job arrivals one fleet-DES trial may expect: the horizon over
/// the spec's `fleet.arrival_interval_s`. The DES numbers arrivals with
/// a `u32` and a saturated fabric queues nearly all of them, so this
/// bounds both the work and the memory of one query.
pub const MAX_FLEET_ARRIVALS: u64 = 1 << 22;
/// Seconds per simulated day.
const SECONDS_PER_DAY: f64 = 86_400.0;
/// Path segments [`route`] reads. Its longest route has four, so a
/// path with six behaves as any longer one does.
const MAX_SEGMENTS: usize = 6;

/// One percent-decoded query parameter, borrowed from the query string
/// unless decoding changed it.
type Param<'q> = (Cow<'q, str>, Cow<'q, str>);

/// Everything the handlers share: the spec registry and the result
/// cache. One per server, `Arc`-shared across workers.
pub struct ServiceState {
    /// Named planner models.
    pub store: SpecStore,
    /// LRU response cache for the Monte Carlo endpoints.
    pub cache: QueryCache,
}

/// A fully-formed response: status, JSON body (always newline
/// terminated), and the `X-Cache` header value for cacheable endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiResponse {
    /// HTTP status code.
    pub status: u16,
    /// JSON body, newline terminated.
    pub body: String,
    /// `Some("hit")`/`Some("miss")` on cacheable endpoints.
    pub x_cache: Option<&'static str>,
}

/// A handler failure: status, stable machine-readable code, message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code.
    pub status: u16,
    /// Stable error code (see docs/service-api.md).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    fn bad_request(code: &'static str, message: String) -> ApiError {
        ApiError {
            status: 400,
            code,
            message,
        }
    }

    fn not_found(message: String) -> ApiError {
        ApiError {
            status: 404,
            code: "not_found",
            message,
        }
    }
}

impl From<StoreError> for ApiError {
    fn from(e: StoreError) -> ApiError {
        match &e {
            StoreError::BadName(_) => ApiError::bad_request("bad_name", e.to_string()),
            StoreError::BadSpec(_) => ApiError {
                status: 422,
                code: "bad_spec",
                message: e.to_string(),
            },
            StoreError::Io(_) => ApiError {
                status: 500,
                code: "storage_io",
                message: e.to_string(),
            },
        }
    }
}

/// Formats the uniform JSON error body.
pub fn error_body(status: u16, code: &str, message: &str) -> String {
    finish(JsonValue::Obj(vec![
        ("code".into(), JsonValue::Str(code.into())),
        ("error".into(), JsonValue::Str(message.into())),
        ("status".into(), JsonValue::Num(f64::from(status))),
    ]))
}

/// Routes one parsed request to its handler. Infallible by design:
/// handler errors become their JSON error responses here.
pub fn handle(state: &ServiceState, req: &Request) -> ApiResponse {
    match route(state, req) {
        Ok(resp) => resp,
        Err(e) => ApiResponse {
            status: e.status,
            body: error_body(e.status, e.code, &e.message),
            x_cache: None,
        },
    }
}

fn route(state: &ServiceState, req: &Request) -> Result<ApiResponse, ApiError> {
    let mut slots = [""; MAX_SEGMENTS];
    let mut len = 0;
    for (slot, segment) in slots
        .iter_mut()
        .zip(req.path.split('/').filter(|s| !s.is_empty()))
    {
        *slot = segment;
        len += 1;
    }
    match (req.method.as_str(), &slots[..len]) {
        ("GET", []) => Ok(plain(200, index_body())),
        ("GET", ["healthz"]) => Ok(plain(200, healthz_body(state))),
        ("GET", ["stats"]) => Ok(plain(200, stats_body(state))),
        ("GET", ["specs"]) => Ok(plain(200, list_body(state))),
        ("GET", ["specs", name]) => get_spec(state, name),
        ("PUT", ["specs", name]) => put_spec(state, name, &req.body),
        ("DELETE", ["specs", name]) => delete_spec(state, name),
        ("GET", ["specs", name, "whatif"]) => whatif(state, name, &req.query),
        ("GET", ["specs", name, "whatif", "sweep"]) => whatif_sweep(state, name, &req.query),
        ("GET", ["specs", name, "collective"]) => collective(state, name, &req.query),
        ("GET", ["specs", name, "fleet"]) => fleet(state, name, &req.query),
        (
            _,
            []
            | ["healthz"]
            | ["stats"]
            | ["specs"]
            | ["specs", _]
            | ["specs", _, "whatif" | "collective" | "fleet"]
            | ["specs", _, "whatif", "sweep"],
        ) => Err(ApiError {
            status: 405,
            code: "method_not_allowed",
            message: format!("{} is not supported on {}", req.method, req.path),
        }),
        ("GET" | "PUT" | "DELETE", ["specs", ..]) => Err(ApiError {
            status: 404,
            code: "unknown_path",
            message: format!("no such endpoint: {}", req.path),
        }),
        _ => Err(ApiError::not_found(format!(
            "no such endpoint: {} (see GET / for the index)",
            req.path
        ))),
    }
}

fn plain(status: u16, body: String) -> ApiResponse {
    ApiResponse {
        status,
        body,
        x_cache: None,
    }
}

fn index_body() -> String {
    let endpoints = [
        "GET /healthz",
        "GET /stats",
        "GET /specs",
        "GET /specs/{name}",
        "PUT /specs/{name}",
        "DELETE /specs/{name}",
        "GET /specs/{name}/whatif",
        "GET /specs/{name}/whatif/sweep",
        "GET /specs/{name}/collective",
        "GET /specs/{name}/fleet",
    ];
    finish(JsonValue::Obj(vec![
        (
            "endpoints".into(),
            JsonValue::Arr(
                endpoints
                    .iter()
                    .map(|e| JsonValue::Str((*e).into()))
                    .collect(),
            ),
        ),
        ("service".into(), JsonValue::Str("tpu-serve".into())),
    ]))
}

fn healthz_body(state: &ServiceState) -> String {
    finish(JsonValue::Obj(vec![
        ("ok".into(), JsonValue::Bool(true)),
        ("specs".into(), JsonValue::Num(state.store.len() as f64)),
    ]))
}

fn stats_body(state: &ServiceState) -> String {
    let (hits, misses, entries) = state.cache.stats();
    finish(JsonValue::Obj(vec![
        ("cache_entries".into(), JsonValue::Num(entries as f64)),
        ("cache_hits".into(), JsonValue::Num(hits as f64)),
        ("cache_misses".into(), JsonValue::Num(misses as f64)),
        ("specs".into(), JsonValue::Num(state.store.len() as f64)),
    ]))
}

fn list_body(state: &ServiceState) -> String {
    let specs = state
        .store
        .list()
        .iter()
        .map(|entry| {
            let spec = entry.model.spec();
            JsonValue::Obj(vec![
                (
                    "fleet_chips".into(),
                    JsonValue::Num(spec.fleet_chips as f64),
                ),
                (
                    "generation".into(),
                    JsonValue::Str(spec.generation.label().into()),
                ),
                ("name".into(), JsonValue::Str(entry.name.clone())),
                (
                    "spec_hash".into(),
                    JsonValue::Str(spec.canonical_hash_hex()),
                ),
            ])
        })
        .collect();
    finish(JsonValue::Obj(vec![(
        "specs".into(),
        JsonValue::Arr(specs),
    )]))
}

fn get_spec(state: &ServiceState, name: &str) -> Result<ApiResponse, ApiError> {
    let entry = lookup(state, name)?;
    Ok(plain(200, format!("{}\n", entry.model.spec().to_json())))
}

fn put_spec(state: &ServiceState, name: &str, body: &[u8]) -> Result<ApiResponse, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::bad_request("bad_encoding", "spec body must be UTF-8".into()))?;
    let spec = MachineSpec::from_json(text).map_err(|e| ApiError {
        status: 422,
        code: "bad_spec",
        message: e.to_string(),
    })?;
    let (entry, replaced_hash, created) = state.store.put(name, &spec)?;
    // Replacing a spec with a *semantically different* one invalidates
    // its cached answers; re-PUTting equivalent bytes keeps them (the
    // canonical hash is identical, so the answers still apply).
    if let Some(old) = replaced_hash {
        if old != entry.model.spec_hash() {
            state.cache.invalidate_spec(old);
        }
    }
    let body = finish(JsonValue::Obj(vec![
        ("created".into(), JsonValue::Bool(created)),
        ("name".into(), JsonValue::Str(entry.name.clone())),
        (
            "spec_hash".into(),
            JsonValue::Str(format!("{:016x}", entry.model.spec_hash())),
        ),
    ]));
    Ok(plain(if created { 201 } else { 200 }, body))
}

fn delete_spec(state: &ServiceState, name: &str) -> Result<ApiResponse, ApiError> {
    match state.store.remove(name)? {
        None => Err(ApiError::not_found(format!("no spec named {name:?}"))),
        Some(entry) => {
            state.cache.invalidate_spec(entry.model.spec_hash());
            Ok(plain(
                200,
                finish(JsonValue::Obj(vec![(
                    "deleted".into(),
                    JsonValue::Str(entry.name.clone()),
                )])),
            ))
        }
    }
}

fn lookup(state: &ServiceState, name: &str) -> Result<Arc<SpecEntry>, ApiError> {
    state
        .store
        .get(name)
        .ok_or_else(|| ApiError::not_found(format!("no spec named {name:?}")))
}

// ---------------------------------------------------------------------
// what-if goodput
// ---------------------------------------------------------------------

/// A parsed, defaulted and validated what-if query — the only input
/// [`whatif_body`] depends on besides the model, and the source of the
/// canonical cache key.
#[derive(Debug, Clone, PartialEq)]
pub struct WhatIfQuery {
    /// Per-host availability in (0, 1].
    pub availability: f64,
    /// Slice size in chips (positive multiple of the block size).
    pub slice_chips: u64,
    /// Fleet-fabric arm under test.
    pub fabric: FabricKind,
    /// Monte Carlo trials.
    pub trials: u32,
    /// RNG seed.
    pub seed: u64,
}

impl WhatIfQuery {
    /// Parses a raw query string against a model (for defaults and
    /// geometry validation), mirroring every `GoodputSim::goodput`
    /// precondition as a 400 instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns a 400 [`ApiError`] naming the offending parameter.
    pub fn parse(model: &PlannerModel, query: &str) -> Result<WhatIfQuery, ApiError> {
        let params = known_params(
            query,
            &["availability", "slice_chips", "fabric", "trials", "seed"],
        )?;
        WhatIfQuery::from_params(model, &params)
    }

    /// The parameter-level half of [`WhatIfQuery::parse`], shared with
    /// the sweep expansion so per-point validation cannot diverge from
    /// the single-point endpoint.
    fn from_params(model: &PlannerModel, params: &[Param<'_>]) -> Result<WhatIfQuery, ApiError> {
        let availability = parse_f64(params, "availability")?.unwrap_or(0.99);
        if !(availability > 0.0 && availability <= 1.0) {
            return Err(ApiError::bad_request(
                "bad_availability",
                format!("availability must be in (0, 1], got {availability}"),
            ));
        }
        let block = u64::from(model.chips_per_block());
        let slice_chips = parse_u64(params, "slice_chips")?
            .unwrap_or_else(|| u64::from((model.blocks() / 4).max(1)) * block);
        if slice_chips == 0
            || !slice_chips.is_multiple_of(block)
            || slice_chips > model.total_chips()
        {
            return Err(ApiError::bad_request(
                "bad_slice_chips",
                format!(
                    "slice_chips must be a positive multiple of {block} up to {}, got {slice_chips}",
                    model.total_chips()
                ),
            ));
        }
        let fabric = parse_fabric(params, model)?;
        let trials = parse_u64(params, "trials")?.unwrap_or(u64::from(DEFAULT_TRIALS));
        if trials == 0 || trials > u64::from(MAX_TRIALS) {
            return Err(ApiError::bad_request(
                "bad_trials",
                format!("trials must be in 1..={MAX_TRIALS}, got {trials}"),
            ));
        }
        let seed = parse_u64(params, "seed")?.unwrap_or(DEFAULT_SEED);
        Ok(WhatIfQuery {
            availability,
            slice_chips,
            fabric,
            trials: trials as u32,
            seed,
        })
    }

    /// The canonical cache key: every parameter post-default, numbers
    /// in canonical JSON form, keys in fixed order — so equivalent
    /// spellings of one question share a cache entry.
    pub fn canonical_key(&self) -> String {
        format!(
            "whatif?availability={}&fabric={}&seed={}&slice_chips={}&trials={}",
            JsonValue::Num(self.availability),
            self.fabric.label(),
            self.seed,
            self.slice_chips,
            self.trials
        )
    }
}

/// Computes the what-if response body for a sim. Shared verbatim by
/// the HTTP handler and `tpu-serve --oneshot`, so the two paths cannot
/// diverge in formatting — only in how they construct the sim, which
/// the equivalence tests prove irrelevant.
pub fn whatif_body(name: &str, sim: &GoodputSim, q: &WhatIfQuery) -> String {
    let model = sim.model();
    let goodput = sim.goodput(q.slice_chips, q.availability, q.fabric);
    finish(JsonValue::Obj(vec![
        ("availability".into(), JsonValue::Num(q.availability)),
        ("fabric".into(), JsonValue::Str(q.fabric.label().into())),
        ("goodput".into(), JsonValue::Num(goodput)),
        ("goodput_bits".into(), JsonValue::Str(bits_hex(goodput))),
        ("seed".into(), JsonValue::Num(q.seed as f64)),
        ("slice_chips".into(), JsonValue::Num(q.slice_chips as f64)),
        ("spec".into(), JsonValue::Str(name.into())),
        (
            "spec_hash".into(),
            JsonValue::Str(format!("{:016x}", model.spec_hash())),
        ),
        (
            "total_chips".into(),
            JsonValue::Num(model.total_chips() as f64),
        ),
        ("trials".into(), JsonValue::Num(f64::from(q.trials))),
    ]))
}

/// The sim a what-if or sweep miss runs on: its Monte Carlo runs on
/// the worker that took the request. The other workers already keep
/// the CPUs busy, so fanning one query's trials out would only add
/// thread spawns; results never depend on the thread count.
fn serving_sim(model: &Arc<PlannerModel>, q: &WhatIfQuery) -> GoodputSim {
    GoodputSim::for_model(Arc::clone(model), q.trials, q.seed).with_threads(1)
}

fn whatif(state: &ServiceState, name: &str, query: &str) -> Result<ApiResponse, ApiError> {
    let entry = lookup(state, name)?;
    let q = WhatIfQuery::parse(&entry.model, query)?;
    Ok(cached(state, &entry, &q.canonical_key(), || {
        whatif_body(UNNAMED, &serving_sim(&entry.model, &q), &q)
    }))
}

/// The `spec` name of a cached body. One spec can be stored under two
/// names, and both share its hash and so its cache entries: the cache
/// keeps answers unnamed, and [`named`] puts in the name each request
/// asked under.
const UNNAMED: &str = "";
/// The `spec` field of a body computed for [`UNNAMED`].
const UNNAMED_FIELD: &str = "\"spec\":\"\"";

/// A body computed for [`UNNAMED`], as the answer for `entry`: its
/// first [`UNNAMED_FIELD`] swapped for the entry's
/// [`SpecEntry::spec_field`], in one allocation of the exact size.
fn named(body: &str, entry: &SpecEntry) -> String {
    let Some(at) = body.find(UNNAMED_FIELD) else {
        return body.to_string();
    };
    let (head, tail) = (&body[..at], &body[at + UNNAMED_FIELD.len()..]);
    let mut out = String::with_capacity(head.len() + entry.spec_field.len() + tail.len());
    out.push_str(head);
    out.push_str(&entry.spec_field);
    out.push_str(tail);
    out
}

/// Answers from the cache under a query's canonical key, or computes
/// the body for [`UNNAMED`], caches it and answers it.
fn cached(
    state: &ServiceState,
    entry: &SpecEntry,
    key: &str,
    compute: impl FnOnce() -> String,
) -> ApiResponse {
    let hash = entry.model.spec_hash();
    let (body, x_cache) = match state.cache.get(hash, key) {
        Some(body) => (named(&body, entry), "hit"),
        None => {
            let body = compute();
            let answer = named(&body, entry);
            state.cache.insert(hash, key, body);
            (answer, "miss")
        }
    };
    ApiResponse {
        status: 200,
        body,
        x_cache: Some(x_cache),
    }
}

/// Expands a sweep query into its per-point [`WhatIfQuery`]s.
///
/// `availability` and `slice_chips` accept comma-separated lists; the
/// grid is their cartesian product (availability outer, slice_chips
/// inner), capped at [`MAX_SWEEP_POINTS`]. `fabric`, `trials` and
/// `seed` are shared by every point, so one `GoodputSim` serves the
/// whole sweep. Each point passes the exact single-point validation.
///
/// # Errors
///
/// Returns a 400 [`ApiError`] for an oversized grid or any point that
/// the single-point endpoint would reject.
pub fn sweep_points(model: &PlannerModel, query: &str) -> Result<Vec<WhatIfQuery>, ApiError> {
    let params = known_params(
        query,
        &["availability", "slice_chips", "fabric", "trials", "seed"],
    )?;
    let availabilities = list_values(&params, "availability");
    let slices = list_values(&params, "slice_chips");
    let count = availabilities.len() * slices.len();
    if count > MAX_SWEEP_POINTS {
        return Err(ApiError::bad_request(
            "bad_sweep",
            format!("sweep asks for {count} grid points; the cap is {MAX_SWEEP_POINTS}"),
        ));
    }
    let shared: Vec<Param<'_>> = params
        .iter()
        .filter(|(k, _)| k != "availability" && k != "slice_chips")
        .cloned()
        .collect();
    let mut points = Vec::with_capacity(count);
    for availability in &availabilities {
        for slice_chips in &slices {
            let mut point = shared.clone();
            if let Some(a) = availability {
                point.push(("availability".into(), (*a).into()));
            }
            if let Some(s) = slice_chips {
                point.push(("slice_chips".into(), (*s).into()));
            }
            points.push(WhatIfQuery::from_params(model, &point)?);
        }
    }
    Ok(points)
}

/// One parameter's sweep axis: the last occurrence split on commas, or
/// a single defaulted point when absent (`None` lets
/// [`WhatIfQuery::from_params`] apply the single-point default).
fn list_values<'p>(params: &'p [Param<'_>], key: &str) -> Vec<Option<&'p str>> {
    match get(params, key) {
        None => vec![None],
        Some(raw) => raw.split(',').map(|v| Some(v.trim())).collect(),
    }
}

/// Assembles a sweep body from per-point what-if bodies: a bare JSON
/// array of the point objects, in grid order, newline terminated.
/// Shared by the HTTP handler and `--oneshot` so the two cannot
/// diverge in formatting.
pub fn sweep_body(bodies: &[String]) -> String {
    let joined: Vec<&str> = bodies.iter().map(|b| b.trim_end()).collect();
    format!("[{}]\n", joined.join(","))
}

/// The sweep endpoint: N what-if grid points over one model, answered
/// in one response. Each point goes through [`cached`] under its
/// canonical single-point key, so a sweep warms the cache for later
/// single-point queries and vice versa. Every point shares trials and
/// seed, so the `GoodputSim` built on the first miss serves the rest.
/// `X-Cache: hit` only when every point came from the cache.
fn whatif_sweep(state: &ServiceState, name: &str, query: &str) -> Result<ApiResponse, ApiError> {
    let entry = lookup(state, name)?;
    let points = sweep_points(&entry.model, query)?;
    let mut sim: Option<GoodputSim> = None;
    let mut bodies = Vec::with_capacity(points.len());
    let mut all_hits = true;
    for q in &points {
        let point = cached(state, &entry, &q.canonical_key(), || {
            let sim = sim.get_or_insert_with(|| serving_sim(&entry.model, q));
            whatif_body(UNNAMED, sim, q)
        });
        all_hits &= point.x_cache == Some("hit");
        bodies.push(point.body);
    }
    Ok(ApiResponse {
        status: 200,
        body: sweep_body(&bodies),
        x_cache: Some(if all_hits { "hit" } else { "miss" }),
    })
}

// ---------------------------------------------------------------------
// collective-time quotes
// ---------------------------------------------------------------------

/// A parsed collective-time quote request.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveQuery {
    /// `all_reduce` or `all_to_all`.
    pub op: String,
    /// Payload: bytes per replica (all-reduce) or per ordered pair
    /// (all-to-all).
    pub bytes: u64,
    /// Slice shape the job occupies.
    pub shape: (u32, u32, u32),
}

impl CollectiveQuery {
    /// Parses a raw query string.
    ///
    /// # Errors
    ///
    /// Returns a 400 [`ApiError`] naming the offending parameter.
    pub fn parse(query: &str) -> Result<CollectiveQuery, ApiError> {
        let params = known_params(query, &["op", "bytes", "shape"])?;
        let op = get(&params, "op").unwrap_or("all_reduce").to_string();
        if op != "all_reduce" && op != "all_to_all" {
            return Err(ApiError::bad_request(
                "bad_op",
                format!("op must be all_reduce or all_to_all, got {op:?}"),
            ));
        }
        let bytes = parse_u64(&params, "bytes")?.unwrap_or(DEFAULT_COLLECTIVE_BYTES);
        if bytes == 0 || bytes > (1 << 42) {
            return Err(ApiError::bad_request(
                "bad_bytes",
                format!("bytes must be in 1..=2^42, got {bytes}"),
            ));
        }
        let shape_text = get(&params, "shape").unwrap_or("4x4x4");
        let dims: Vec<u32> = shape_text
            .split('x')
            .map(|d| d.parse::<u32>())
            .collect::<Result<_, _>>()
            .map_err(|_| bad_shape(shape_text))?;
        let shape = match dims.as_slice() {
            [x, y, z] if *x > 0 && *y > 0 && *z > 0 && *x <= 1024 && *y <= 1024 && *z <= 1024 => {
                (*x, *y, *z)
            }
            _ => return Err(bad_shape(shape_text)),
        };
        Ok(CollectiveQuery { op, bytes, shape })
    }
}

fn bad_shape(text: &str) -> ApiError {
    ApiError::bad_request(
        "bad_shape",
        format!("shape must be XxYxZ with dims in 1..=1024, got {text:?}"),
    )
}

/// Computes the collective-quote body against a pristine clone of the
/// machine on its own fabric — the same `submit` + `collective_time`
/// path `repro --spec` reports. Shared by HTTP and `--oneshot`.
///
/// # Errors
///
/// Returns 422 when the machine cannot host the shape.
pub fn collective_body(
    name: &str,
    model: &PlannerModel,
    q: &CollectiveQuery,
) -> Result<String, ApiError> {
    let shape = SliceShape::new(q.shape.0, q.shape.1, q.shape.2)
        .map_err(|e| ApiError::bad_request("bad_shape", format!("shape {:?}: {e}", q.shape)))?;
    let mut machine = model.native_machine().clone();
    let id = machine
        .submit(JobSpec::new("quote", SliceSpec::regular(shape)))
        .map_err(|e| ApiError {
            status: 422,
            code: "unplaceable",
            message: format!(
                "machine cannot host a {}x{}x{} slice: {e}",
                q.shape.0, q.shape.1, q.shape.2
            ),
        })?;
    let op = if q.op == "all_to_all" {
        Collective::AllToAll {
            bytes_per_pair: q.bytes,
        }
    } else {
        Collective::AllReduce { bytes: q.bytes }
    };
    let seconds = machine.collective_time(id, op).map_err(|e| ApiError {
        status: 422,
        code: "unquotable",
        message: e.to_string(),
    })?;
    Ok(finish(JsonValue::Obj(vec![
        ("bytes".into(), JsonValue::Num(q.bytes as f64)),
        ("op".into(), JsonValue::Str(q.op.clone())),
        ("seconds".into(), JsonValue::Num(seconds)),
        ("seconds_bits".into(), JsonValue::Str(bits_hex(seconds))),
        (
            "shape".into(),
            JsonValue::Str(format!("{}x{}x{}", q.shape.0, q.shape.1, q.shape.2)),
        ),
        ("spec".into(), JsonValue::Str(name.into())),
        (
            "spec_hash".into(),
            JsonValue::Str(format!("{:016x}", model.spec_hash())),
        ),
    ])))
}

fn collective(state: &ServiceState, name: &str, query: &str) -> Result<ApiResponse, ApiError> {
    let entry = lookup(state, name)?;
    let q = CollectiveQuery::parse(query)?;
    // Computed fresh every time, no cache entry spent on it. An
    // all-reduce takes a few milliseconds, but an all-to-all
    // materializes the slice and runs its load model, which takes
    // seconds on the largest shapes (docs/service-api.md).
    Ok(plain(200, collective_body(&entry.name, &entry.model, &q)?))
}

// ---------------------------------------------------------------------
// fleet DES runs
// ---------------------------------------------------------------------

/// A parsed fleet-DES query.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetQuery {
    /// Simulated horizon, days in (0, [`MAX_HORIZON_DAYS`]].
    pub horizon_days: f64,
    /// Fleet-fabric arm under test.
    pub fabric: FabricKind,
    /// Independent DES replications to average.
    pub trials: u32,
    /// RNG seed.
    pub seed: u64,
}

impl FleetQuery {
    /// Parses a raw query string against a model.
    ///
    /// # Errors
    ///
    /// Returns a 400 [`ApiError`] naming the offending parameter.
    pub fn parse(model: &PlannerModel, query: &str) -> Result<FleetQuery, ApiError> {
        let params = known_params(query, &["horizon_days", "fabric", "trials", "seed"])?;
        let horizon_days = parse_f64(&params, "horizon_days")?.unwrap_or(7.0);
        if !(horizon_days > 0.0 && horizon_days <= MAX_HORIZON_DAYS) {
            return Err(ApiError::bad_request(
                "bad_horizon",
                format!("horizon_days must be in (0, {MAX_HORIZON_DAYS}], got {horizon_days}"),
            ));
        }
        let interval_s = model.spec().fleet_profile().arrival_interval_s;
        let arrivals = horizon_days * SECONDS_PER_DAY / interval_s;
        if arrivals > MAX_FLEET_ARRIVALS as f64 {
            return Err(ApiError::bad_request(
                "bad_horizon",
                format!(
                    "horizon_days {horizon_days} at one arrival per {interval_s} s expects \
                     {arrivals} jobs; the cap is {MAX_FLEET_ARRIVALS}"
                ),
            ));
        }
        let fabric = parse_fabric(&params, model)?;
        let trials = parse_u64(&params, "trials")?.unwrap_or(3);
        if trials == 0 || trials > u64::from(MAX_FLEET_TRIALS) {
            return Err(ApiError::bad_request(
                "bad_trials",
                format!("trials must be in 1..={MAX_FLEET_TRIALS}, got {trials}"),
            ));
        }
        let seed = parse_u64(&params, "seed")?.unwrap_or(DEFAULT_SEED);
        Ok(FleetQuery {
            horizon_days,
            fabric,
            trials: trials as u32,
            seed,
        })
    }

    /// The canonical cache key (see [`WhatIfQuery::canonical_key`]).
    pub fn canonical_key(&self) -> String {
        format!(
            "fleet?fabric={}&horizon_days={}&seed={}&trials={}",
            self.fabric.label(),
            JsonValue::Num(self.horizon_days),
            self.seed,
            self.trials
        )
    }
}

/// Computes the fleet-DES response body. Shared by HTTP and
/// `--oneshot`.
pub fn fleet_body(name: &str, model: &Arc<PlannerModel>, q: &FleetQuery) -> String {
    let sim = FleetSim::for_model(Arc::clone(model), q.horizon_days * SECONDS_PER_DAY, q.seed);
    let m = sim.run_trials(q.fabric, q.trials);
    finish(JsonValue::Obj(vec![
        ("availability".into(), JsonValue::Num(m.availability)),
        ("completions".into(), JsonValue::Num(m.completions)),
        ("events".into(), JsonValue::Num(m.events)),
        ("fabric".into(), JsonValue::Str(q.fabric.label().into())),
        ("fragmentation".into(), JsonValue::Num(m.fragmentation)),
        ("goodput".into(), JsonValue::Num(m.goodput)),
        ("goodput_bits".into(), JsonValue::Str(bits_hex(m.goodput))),
        ("horizon_days".into(), JsonValue::Num(q.horizon_days)),
        (
            "mean_wait_best_effort_s".into(),
            JsonValue::Num(m.mean_wait_best_effort_s),
        ),
        (
            "mean_wait_production_s".into(),
            JsonValue::Num(m.mean_wait_production_s),
        ),
        ("mean_wait_s".into(), JsonValue::Num(m.mean_wait_s)),
        ("preemptions".into(), JsonValue::Num(m.preemptions)),
        (
            "reconfig_overhead".into(),
            JsonValue::Num(m.reconfig_overhead),
        ),
        ("seed".into(), JsonValue::Num(q.seed as f64)),
        ("spec".into(), JsonValue::Str(name.into())),
        (
            "spec_hash".into(),
            JsonValue::Str(format!("{:016x}", model.spec_hash())),
        ),
        ("trials".into(), JsonValue::Num(f64::from(q.trials))),
        ("utilization".into(), JsonValue::Num(m.utilization)),
    ]))
}

fn fleet(state: &ServiceState, name: &str, query: &str) -> Result<ApiResponse, ApiError> {
    let entry = lookup(state, name)?;
    let q = FleetQuery::parse(&entry.model, query)?;
    Ok(cached(state, &entry, &q.canonical_key(), || {
        fleet_body(UNNAMED, &entry.model, &q)
    }))
}

// ---------------------------------------------------------------------
// parameter plumbing
// ---------------------------------------------------------------------

/// Splits a query and rejects unknown parameter names — a typo'd
/// parameter silently falling back to its default would poison the
/// cache-key canonicalization.
fn known_params<'q>(query: &'q str, allowed: &[&str]) -> Result<Vec<Param<'q>>, ApiError> {
    let params = query_params(query);
    for (key, _) in &params {
        if !allowed.contains(&key.as_ref()) {
            return Err(ApiError::bad_request(
                "unknown_param",
                format!("unknown parameter {key:?}; allowed: {}", allowed.join(", ")),
            ));
        }
    }
    Ok(params)
}

/// Last occurrence of a key wins, like most HTTP servers.
fn get<'p>(params: &'p [Param<'_>], key: &str) -> Option<&'p str> {
    params
        .iter()
        .rev()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_ref())
}

fn parse_f64(params: &[Param<'_>], key: &'static str) -> Result<Option<f64>, ApiError> {
    match get(params, key) {
        None => Ok(None),
        Some(raw) => raw
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .map(Some)
            .ok_or_else(|| {
                ApiError::bad_request(
                    "bad_number",
                    format!("{key} must be a finite number, got {raw:?}"),
                )
            }),
    }
}

fn parse_u64(params: &[Param<'_>], key: &'static str) -> Result<Option<u64>, ApiError> {
    match get(params, key) {
        None => Ok(None),
        Some(raw) => raw.parse::<u64>().map(Some).map_err(|_| {
            ApiError::bad_request(
                "bad_number",
                format!("{key} must be a non-negative integer, got {raw:?}"),
            )
        }),
    }
}

/// The default fabric is the machine's reconfigurable arm: its own
/// switched fabric for `torus_dims == 0` specs, the OCS plugboard
/// otherwise. On a `torus_dims == 0` spec `ocs` names that same arm, so
/// it canonicalizes to `switched`: one question, one cache key, one
/// body. `switched` is rejected on torus specs exactly as in
/// `GoodputSim::goodput`.
fn parse_fabric(params: &[Param<'_>], model: &PlannerModel) -> Result<FabricKind, ApiError> {
    let fabric = match get(params, "fabric") {
        None => FabricKind::Ocs,
        Some(raw) => FabricKind::from_label(raw).ok_or_else(|| {
            ApiError::bad_request(
                "bad_fabric",
                format!("fabric must be ocs, static or switched, got {raw:?}"),
            )
        })?,
    };
    let islands = model.spec().torus_dims == 0;
    match fabric {
        FabricKind::Ocs if islands => Ok(FabricKind::Switched),
        FabricKind::Switched if !islands => Err(ApiError::bad_request(
            "bad_fabric",
            "fabric=switched is only defined for torus_dims == 0 specs".into(),
        )),
        other => Ok(other),
    }
}

/// IEEE-754 bit pattern of a result, for wire-level bit-identity
/// checks against the offline paths.
fn bits_hex(x: f64) -> String {
    format!("0x{:016x}", x.to_bits())
}

/// Renders a body: canonical JSON plus the trailing newline every
/// response ends with.
fn finish(value: JsonValue) -> String {
    format!("{value}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with_v4() -> ServiceState {
        let store = SpecStore::in_memory();
        store.put("v4", &MachineSpec::v4()).unwrap();
        store.put("a100", &MachineSpec::a100()).unwrap();
        ServiceState {
            store,
            cache: QueryCache::new(64),
        }
    }

    fn get_req(path_and_query: &str) -> Request {
        let (path, query) = match path_and_query.split_once('?') {
            Some((p, q)) => (p, q),
            None => (path_and_query, ""),
        };
        Request {
            method: "GET".into(),
            path: path.into(),
            query: query.into(),
            body: Vec::new(),
            keep_alive: false,
        }
    }

    #[test]
    fn unknown_paths_are_404() {
        let state = state_with_v4();
        for method in ["GET", "PUT", "DELETE"] {
            for path in ["/nope", "/specs/v4/unknown", "/specs/v4/whatif/extra"] {
                let req = Request {
                    method: method.into(),
                    ..get_req(path)
                };
                let resp = handle(&state, &req);
                assert_eq!(resp.status, 404, "{method} {path}");
                assert!(resp.body.contains("not_found") || resp.body.contains("unknown_path"));
            }
        }
    }

    #[test]
    fn wrong_methods_are_405() {
        let state = state_with_v4();
        let req = Request {
            method: "POST".into(),
            path: "/specs/v4/whatif".into(),
            query: String::new(),
            body: Vec::new(),
            keep_alive: false,
        };
        assert_eq!(handle(&state, &req).status, 405);
        let sweep = Request {
            method: "POST".into(),
            path: "/specs/v4/whatif/sweep".into(),
            query: String::new(),
            body: Vec::new(),
            keep_alive: false,
        };
        assert_eq!(handle(&state, &sweep).status, 405);
        for method in ["POST", "PATCH"] {
            let req = Request {
                method: method.into(),
                ..get_req("/specs/v4")
            };
            let resp = handle(&state, &req);
            assert_eq!(resp.status, 405, "{method}: {}", resp.body);
            assert!(
                resp.body.contains("method_not_allowed"),
                "{method}: {}",
                resp.body
            );
        }
    }

    #[test]
    fn whatif_rejects_bad_parameters_cleanly() {
        let state = state_with_v4();
        for (query, code) in [
            ("availability=0", "bad_availability"),
            ("availability=1.5", "bad_availability"),
            ("availability=nan", "bad_number"),
            ("slice_chips=65", "bad_slice_chips"),
            ("slice_chips=0", "bad_slice_chips"),
            ("slice_chips=8192", "bad_slice_chips"),
            ("trials=0", "bad_trials"),
            ("trials=999999", "bad_trials"),
            ("fabric=warp", "bad_fabric"),
            ("fabric=switched", "bad_fabric"),
            ("typo=1", "unknown_param"),
        ] {
            let resp = handle(&state, &get_req(&format!("/specs/v4/whatif?{query}")));
            assert_eq!(resp.status, 400, "{query}: {}", resp.body);
            assert!(resp.body.contains(code), "{query}: {}", resp.body);
        }
    }

    #[test]
    fn whatif_answers_and_caches() {
        let state = state_with_v4();
        let req = get_req("/specs/v4/whatif?availability=0.995&slice_chips=1024&trials=40&seed=7");
        let cold = handle(&state, &req);
        assert_eq!(cold.status, 200);
        assert_eq!(cold.x_cache, Some("miss"));
        let warm = handle(&state, &req);
        assert_eq!(warm.x_cache, Some("hit"));
        assert_eq!(cold.body, warm.body, "hits must be byte-identical");
        // Equivalent spelling of the same question: same cache entry.
        let respelled = handle(
            &state,
            &get_req("/specs/v4/whatif?seed=7&trials=40&slice_chips=1024&availability=0.9950"),
        );
        assert_eq!(respelled.x_cache, Some("hit"));
        assert_eq!(respelled.body, cold.body);
    }

    #[test]
    fn whatif_matches_the_offline_sim_bit_for_bit() {
        let state = state_with_v4();
        let resp = handle(
            &state,
            &get_req("/specs/v4/whatif?availability=0.992&slice_chips=1024&trials=50&seed=9"),
        );
        let offline =
            GoodputSim::for_spec(&MachineSpec::v4(), 50, 9).goodput(1024, 0.992, FabricKind::Ocs);
        assert!(
            resp.body.contains(&bits_hex(offline)),
            "service {} vs offline {}",
            resp.body,
            bits_hex(offline)
        );
    }

    #[test]
    fn switched_default_fabric_for_island_machines() {
        let state = state_with_v4();
        let resp = handle(&state, &get_req("/specs/a100/whatif?trials=10"));
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"fabric\":\"switched\""));
    }

    #[test]
    fn collective_quotes_are_computed_fresh() {
        let state = state_with_v4();
        let resp = handle(
            &state,
            &get_req("/specs/v4/collective?op=all_reduce&bytes=1073741824&shape=4x4x4"),
        );
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(resp.body.contains("\"seconds\":"));
        assert_eq!(resp.x_cache, None);
        // Malformed shapes and ops are 400s.
        for q in ["shape=4x4", "shape=0x4x4", "shape=4x4x4x4", "op=all_gather"] {
            let resp = handle(&state, &get_req(&format!("/specs/v4/collective?{q}")));
            assert_eq!(resp.status, 400, "{q}");
        }
        // A shape bigger than the machine is 422 unplaceable.
        let resp = handle(&state, &get_req("/specs/v4/collective?shape=64x64x64"));
        assert_eq!(resp.status, 422, "{}", resp.body);
    }

    #[test]
    fn spec_crud_over_the_api() {
        let state = state_with_v4();
        let put = Request {
            method: "PUT".into(),
            path: "/specs/mini".into(),
            query: String::new(),
            body: MachineSpec::v3().to_json().into_bytes(),
            keep_alive: false,
        };
        let resp = handle(&state, &put);
        assert_eq!(resp.status, 201, "{}", resp.body);
        assert!(resp.body.contains("\"created\":true"));
        let got = handle(&state, &get_req("/specs/mini"));
        assert_eq!(got.body.trim_end(), MachineSpec::v3().to_json());
        let deleted = handle(
            &state,
            &Request {
                method: "DELETE".into(),
                path: "/specs/mini".into(),
                query: String::new(),
                body: Vec::new(),
                keep_alive: false,
            },
        );
        assert_eq!(deleted.status, 200);
        assert_eq!(handle(&state, &get_req("/specs/mini")).status, 404);
        // Garbage bodies are 422, not 500.
        let bad = Request {
            method: "PUT".into(),
            path: "/specs/broken".into(),
            query: String::new(),
            body: b"not json".to_vec(),
            keep_alive: false,
        };
        assert_eq!(handle(&state, &bad).status, 422);
    }

    /// PUTs `bad` into a directory holding v4 and requires a 422
    /// `bad_spec` that writes nothing, so a restart still loads the
    /// directory.
    fn assert_put_refused(case: &str, bad: &MachineSpec) {
        let dir =
            std::env::temp_dir().join(format!("tpu-serve-bad-put-{case}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("v4.json"), MachineSpec::v4().to_json()).unwrap();
        let state = ServiceState {
            store: SpecStore::load_dir(&dir).unwrap(),
            cache: QueryCache::new(8),
        };
        let put = Request {
            method: "PUT".into(),
            path: "/specs/bad".into(),
            query: String::new(),
            body: bad.to_json().into_bytes(),
            keep_alive: false,
        };
        let resp = handle(&state, &put);
        assert_eq!(resp.status, 422, "{}", resp.body);
        assert!(resp.body.contains("bad_spec"), "{}", resp.body);
        assert!(!dir.join("bad.json").exists());
        assert_eq!(SpecStore::load_dir(&dir).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_rejected_put_leaves_the_spec_directory_loadable() {
        // A geometry no model can hold is a 422 before anything is
        // built or written.
        let mut bad = MachineSpec::v4();
        bad.block.edge = 0;
        assert_put_refused("edge", &bad);
    }

    #[test]
    fn a_torus_fleet_past_the_plugboard_is_refused_at_put() {
        // 128 blocks: twice what the Palomars' usable ports can join,
        // which would panic in `Fabric::new` on the first what-if.
        let mut big = MachineSpec::v4();
        big.fleet_chips = 8192;
        assert_put_refused("big", &big);
    }

    #[test]
    fn replacing_a_spec_invalidates_its_cache_entries() {
        let state = state_with_v4();
        let req = get_req("/specs/v4/whatif?availability=0.995&trials=20");
        assert_eq!(handle(&state, &req).x_cache, Some("miss"));
        assert_eq!(handle(&state, &req).x_cache, Some("hit"));
        // Re-PUT the identical spec: hash unchanged, cache kept.
        let same = Request {
            method: "PUT".into(),
            path: "/specs/v4".into(),
            query: String::new(),
            body: MachineSpec::v4().to_json().into_bytes(),
            keep_alive: false,
        };
        assert_eq!(handle(&state, &same).status, 200);
        assert_eq!(handle(&state, &req).x_cache, Some("hit"));
        // PUT a different machine under the name: entries invalidated.
        let different = Request {
            method: "PUT".into(),
            path: "/specs/v4".into(),
            query: String::new(),
            body: MachineSpec::v2().to_json().into_bytes(),
            keep_alive: false,
        };
        assert_eq!(handle(&state, &different).status, 200);
        let after = handle(
            &state,
            &get_req("/specs/v4/whatif?availability=0.995&trials=20"),
        );
        assert_eq!(after.x_cache, Some("miss"));
    }

    /// A profile's expected arrivals bound a fleet query: a PUT spec
    /// may set any positive `fleet.arrival_interval_s`, and before the
    /// cap a 60-day query on one arrival per microsecond would draw
    /// about 5·10¹² jobs. The cap itself is allowed.
    #[test]
    fn fleet_queries_cap_the_expected_arrivals() {
        let state = state_with_v4();
        let with_interval = |arrival_interval_s: f64| {
            let mut spec = MachineSpec::v4();
            spec.fleet = Some(tpu_spec::FleetSpec {
                arrival_interval_s,
                ..tpu_spec::FleetSpec::reference()
            });
            spec
        };
        let put = Request {
            method: "PUT".into(),
            path: "/specs/flood".into(),
            query: String::new(),
            body: with_interval(1e-6).to_json().into_bytes(),
            keep_alive: false,
        };
        assert_eq!(handle(&state, &put).status, 201);
        for horizon in ["60", "0.01"] {
            let resp = handle(
                &state,
                &get_req(&format!("/specs/flood/fleet?horizon_days={horizon}")),
            );
            assert_eq!(resp.status, 400, "{horizon}: {}", resp.body);
            assert!(resp.body.contains("bad_horizon"), "{}", resp.body);
        }
        // 60 days at this interval is exactly the cap; a shorter
        // interval passes it.
        let at_cap = 60.0 * SECONDS_PER_DAY / MAX_FLEET_ARRIVALS as f64;
        let model = PlannerModel::for_spec(&with_interval(at_cap));
        assert!(FleetQuery::parse(&model, "horizon_days=60").is_ok());
        let model = PlannerModel::for_spec(&with_interval(at_cap * 0.999));
        let err = FleetQuery::parse(&model, "horizon_days=60").unwrap_err();
        assert_eq!((err.status, err.code), (400, "bad_horizon"));
        assert!(FleetQuery::parse(&model, "horizon_days=59").is_ok());
        // The reference profile's longest horizon is far inside it.
        let reference = PlannerModel::for_spec(&MachineSpec::v4());
        assert!(FleetQuery::parse(&reference, "horizon_days=60").is_ok());
    }

    #[test]
    fn list_and_health_are_deterministic() {
        let state = state_with_v4();
        let a = handle(&state, &get_req("/specs"));
        let b = handle(&state, &get_req("/specs"));
        assert_eq!(a.body, b.body);
        assert!(a.body.contains("\"name\":\"a100\""));
        let health = handle(&state, &get_req("/healthz"));
        assert_eq!(health.body, "{\"ok\":true,\"specs\":2}\n");
    }

    #[test]
    fn sweep_is_the_concatenation_of_its_single_point_answers() {
        let state = state_with_v4();
        let sweep = handle(
            &state,
            &get_req(
                "/specs/v4/whatif/sweep?availability=0.99,0.995&slice_chips=512,1024&trials=30&seed=5",
            ),
        );
        assert_eq!(sweep.status, 200, "{}", sweep.body);
        assert_eq!(sweep.x_cache, Some("miss"));
        // Grid order: availability outer, slice_chips inner.
        let mut expected = Vec::new();
        for a in ["0.99", "0.995"] {
            for s in ["512", "1024"] {
                let point = handle(
                    &state,
                    &get_req(&format!(
                        "/specs/v4/whatif?availability={a}&slice_chips={s}&trials=30&seed=5"
                    )),
                );
                assert_eq!(point.status, 200);
                // The sweep already computed and cached every point.
                assert_eq!(point.x_cache, Some("hit"), "a={a} s={s}");
                expected.push(point.body);
            }
        }
        assert_eq!(sweep.body, sweep_body(&expected));
        // The whole grid cached: a repeat sweep is a pure cache hit.
        let again = handle(
            &state,
            &get_req(
                "/specs/v4/whatif/sweep?availability=0.99,0.995&slice_chips=512,1024&trials=30&seed=5",
            ),
        );
        assert_eq!(again.x_cache, Some("hit"));
        assert_eq!(again.body, sweep.body);
    }

    #[test]
    fn sweep_defaults_collapse_to_one_point() {
        let state = state_with_v4();
        let sweep = handle(&state, &get_req("/specs/v4/whatif/sweep?trials=10"));
        assert_eq!(sweep.status, 200, "{}", sweep.body);
        let point = handle(&state, &get_req("/specs/v4/whatif?trials=10"));
        assert_eq!(sweep.body, sweep_body(&[point.body]));
    }

    #[test]
    fn sweep_rejects_oversized_grids_and_bad_points() {
        let state = state_with_v4();
        let many: Vec<String> = (1..=65)
            .map(|i| format!("{}", 0.9 + 0.001 * f64::from(i)))
            .collect();
        let resp = handle(
            &state,
            &get_req(&format!(
                "/specs/v4/whatif/sweep?availability={}",
                many.join(",")
            )),
        );
        assert_eq!(resp.status, 400, "{}", resp.body);
        assert!(resp.body.contains("bad_sweep"), "{}", resp.body);
        // A single bad point fails the whole sweep with the
        // single-point error code.
        for (query, code) in [
            ("availability=0.99,2.0", "bad_availability"),
            ("slice_chips=512,65", "bad_slice_chips"),
            ("availability=0.99,,0.98", "bad_number"),
            ("typo=1", "unknown_param"),
        ] {
            let resp = handle(&state, &get_req(&format!("/specs/v4/whatif/sweep?{query}")));
            assert_eq!(resp.status, 400, "{query}: {}", resp.body);
            assert!(resp.body.contains(code), "{query}: {}", resp.body);
        }
    }

    #[test]
    fn a_named_unnamed_body_is_the_body_computed_for_the_name() {
        let store = SpecStore::in_memory();
        let (entry, _, _) = store.put("v4", &MachineSpec::v4()).unwrap();
        let q = WhatIfQuery::parse(&entry.model, "trials=10").unwrap();
        let sim = serving_sim(&entry.model, &q);
        let unnamed = whatif_body(UNNAMED, &sim, &q);
        assert_eq!(unnamed.matches(UNNAMED_FIELD).count(), 1);
        assert_eq!(named(&unnamed, &entry), whatif_body("v4", &sim, &q));
    }

    #[test]
    fn canonical_keys_normalize_number_spellings() {
        let model = PlannerModel::for_spec(&MachineSpec::v4());
        let a = WhatIfQuery::parse(&model, "availability=0.9920&trials=40").unwrap();
        let b = WhatIfQuery::parse(&model, "availability=0.992&trials=40").unwrap();
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert!(a.canonical_key().starts_with("whatif?availability=0.992&"));
    }
}
