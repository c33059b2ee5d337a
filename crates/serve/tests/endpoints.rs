//! End-to-end exercise of every endpoint over real TCP, using the
//! crate's own blocking client against an in-process server.

use tpu_serve::{client, QueryCache, Server, ServiceState, SpecStore};
use tpu_spec::MachineSpec;

fn start_server() -> Server {
    let store = SpecStore::in_memory();
    store.put("v4", &MachineSpec::v4()).unwrap();
    store.put("v3", &MachineSpec::v3()).unwrap();
    store.put("a100", &MachineSpec::a100()).unwrap();
    let state = ServiceState {
        store,
        cache: QueryCache::new(64),
    };
    Server::start(state, "127.0.0.1:0", 3).unwrap()
}

fn get(server: &Server, target: &str) -> client::ClientResponse {
    client::request(server.local_addr(), "GET", target, None).unwrap()
}

#[test]
fn index_and_health_and_stats() {
    let server = start_server();
    let index = get(&server, "/");
    assert_eq!(index.status, 200);
    assert!(index.body.contains("\"service\":\"tpu-serve\""));
    assert!(index.body.contains("GET /specs/{name}/whatif"));

    let health = get(&server, "/healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "{\"ok\":true,\"specs\":3}\n");

    let stats = get(&server, "/stats");
    assert_eq!(stats.status, 200);
    assert!(stats.body.contains("\"cache_entries\":"), "{}", stats.body);
    server.shutdown();
}

#[test]
fn spec_listing_and_fetch() {
    let server = start_server();
    let list = get(&server, "/specs");
    assert_eq!(list.status, 200);
    for name in ["a100", "v3", "v4"] {
        assert!(
            list.body.contains(&format!("\"name\":\"{name}\"")),
            "{}",
            list.body
        );
    }
    // Names come back sorted: a100 before v3 before v4.
    let a = list.body.find("\"name\":\"a100\"").unwrap();
    let b = list.body.find("\"name\":\"v3\"").unwrap();
    let c = list.body.find("\"name\":\"v4\"").unwrap();
    assert!(a < b && b < c);

    let spec = get(&server, "/specs/v4");
    assert_eq!(spec.status, 200);
    assert_eq!(spec.body.trim_end(), MachineSpec::v4().to_json());
    assert_eq!(
        MachineSpec::from_json(&spec.body).unwrap(),
        MachineSpec::v4(),
        "served specs round-trip"
    );

    assert_eq!(get(&server, "/specs/nope").status, 404);
    server.shutdown();
}

#[test]
fn spec_put_and_delete_over_http() {
    let server = start_server();
    let addr = server.local_addr();
    let body = MachineSpec::v2().to_json();
    let put = client::request(addr, "PUT", "/specs/mine", Some(&body)).unwrap();
    assert_eq!(put.status, 201, "{}", put.body);
    assert!(put.body.contains("\"created\":true"));

    let got = get(&server, "/specs/mine");
    assert_eq!(got.body.trim_end(), body);

    let del = client::request(addr, "DELETE", "/specs/mine", None).unwrap();
    assert_eq!(del.status, 200);
    assert_eq!(get(&server, "/specs/mine").status, 404);

    // Invalid bodies are 422, invalid names 400.
    let bad = client::request(addr, "PUT", "/specs/mine", Some("{}")).unwrap();
    assert_eq!(bad.status, 422, "{}", bad.body);
    let bad_name = client::request(addr, "PUT", "/specs/.sneaky", Some(&body)).unwrap();
    assert_eq!(bad_name.status, 400, "{}", bad_name.body);
    server.shutdown();
}

#[test]
fn whatif_over_http_hits_the_cache_second_time() {
    let server = start_server();
    let target = "/specs/v4/whatif?availability=0.992&slice_chips=1024&trials=30&seed=7";
    let cold = get(&server, target);
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert_eq!(cold.header("x-cache"), Some("miss"));
    assert!(cold.body.contains("\"goodput\":"));
    assert!(cold.body.contains("\"goodput_bits\":\"0x"));

    let warm = get(&server, target);
    assert_eq!(warm.header("x-cache"), Some("hit"));
    assert_eq!(warm.body, cold.body, "hit must be byte-identical to miss");

    let (hits, misses, entries) = server.state().cache.stats();
    assert!(
        hits >= 1 && misses >= 1 && entries >= 1,
        "{hits}/{misses}/{entries}"
    );
    server.shutdown();
}

#[test]
fn one_spec_under_two_names_answers_each_name_on_a_hit() {
    // Answers are cached by spec hash and query, and the same spec PUT
    // under a second name has the same hash: a hit must still carry the
    // name it was asked under, as a recompute would.
    let server = start_server();
    let body = MachineSpec::v4().to_json();
    let put = client::request(server.local_addr(), "PUT", "/specs/mine", Some(&body)).unwrap();
    assert_eq!(put.status, 201, "{}", put.body);
    for query in [
        "whatif?slice_chips=1024&trials=20&seed=5",
        "whatif/sweep?slice_chips=512,1024&trials=20&seed=5",
        "fleet?horizon_days=0.25&trials=1&seed=3",
    ] {
        let first = get(&server, &format!("/specs/v4/{query}"));
        assert_eq!(first.status, 200, "{}", first.body);
        let second = get(&server, &format!("/specs/mine/{query}"));
        assert_eq!(second.header("x-cache"), Some("hit"), "{query}");
        assert!(!second.body.contains("\"spec\":\"v4\""), "{query}");
        assert_eq!(
            second.body.replace("\"spec\":\"mine\"", "\"spec\":\"v4\""),
            first.body,
            "{query}"
        );
        let again = get(&server, &format!("/specs/v4/{query}"));
        assert_eq!(again.header("x-cache"), Some("hit"), "{query}");
        assert_eq!(again.body, first.body, "{query}");
    }
    server.shutdown();
}

#[test]
fn ocs_and_switched_spell_one_question_on_island_specs() {
    // On a torus_dims == 0 spec, fabric=ocs computes the switched arm,
    // so it canonicalizes to switched: one cache entry, one body.
    let server = start_server();
    let query = "availability=0.99&slice_chips=512&trials=30&seed=7";
    let first = get(&server, &format!("/specs/a100/whatif?fabric=ocs&{query}"));
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.header("x-cache"), Some("miss"));
    assert!(
        first.body.contains("\"fabric\":\"switched\""),
        "{}",
        first.body
    );
    for target in [
        format!("/specs/a100/whatif?fabric=switched&{query}"),
        format!("/specs/a100/whatif?{query}"),
    ] {
        let again = get(&server, &target);
        assert_eq!(again.header("x-cache"), Some("hit"), "{target}");
        assert_eq!(again.body, first.body, "{target}");
    }
    let sweep = get(
        &server,
        &format!("/specs/a100/whatif/sweep?fabric=ocs&{query}"),
    );
    assert_eq!(sweep.header("x-cache"), Some("hit"), "{}", sweep.body);
    assert_eq!(sweep.body, format!("[{}]\n", first.body.trim_end()));
    server.shutdown();
}

#[test]
fn collective_and_fleet_over_http() {
    let server = start_server();
    let quote = get(
        &server,
        "/specs/v4/collective?op=all_to_all&bytes=1048576&shape=4x4x8",
    );
    assert_eq!(quote.status, 200, "{}", quote.body);
    assert!(quote.body.contains("\"op\":\"all_to_all\""));
    assert!(quote.body.contains("\"shape\":\"4x4x8\""));

    let fleet = get(&server, "/specs/v4/fleet?horizon_days=0.25&trials=1&seed=3");
    assert_eq!(fleet.status, 200, "{}", fleet.body);
    for field in [
        "\"availability\":",
        "\"utilization\":",
        "\"mean_wait_s\":",
        "\"goodput_bits\":",
    ] {
        assert!(
            fleet.body.contains(field),
            "missing {field}: {}",
            fleet.body
        );
    }
    assert_eq!(fleet.header("x-cache"), Some("miss"));
    let again = get(&server, "/specs/v4/fleet?horizon_days=0.25&trials=1&seed=3");
    assert_eq!(again.header("x-cache"), Some("hit"));
    assert_eq!(again.body, fleet.body);
    server.shutdown();
}

#[test]
fn http_error_paths_over_tcp() {
    let server = start_server();
    assert_eq!(get(&server, "/specs/v4/whatif?trials=0").status, 400);
    assert_eq!(get(&server, "/specs/v4/whatif?bogus=1").status, 400);
    assert_eq!(get(&server, "/specs/missing/whatif").status, 404);
    assert_eq!(get(&server, "/totally/unknown").status, 404);
    let post = client::request(server.local_addr(), "POST", "/specs/v4/whatif", None).unwrap();
    assert_eq!(post.status, 405);
    server.shutdown();
}
