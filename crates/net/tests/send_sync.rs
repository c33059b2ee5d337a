//! Thread-safety contract of the network layer (DESIGN.md §14).
//!
//! The planning service quotes collective times from worker threads
//! over shared machine prototypes, which embed these network models —
//! so every type that can end up inside an `Arc<PlannerModel>` must be
//! `Send + Sync`. Compile-time facts, pinned as a test.

use tpu_net::{AlphaBeta, CollectiveSchedule, FatTree, FlowSim, LinkRate, SwitchedFabric};

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn network_models_are_send_sync() {
    assert_send_sync::<SwitchedFabric>();
    assert_send_sync::<FatTree>();
    assert_send_sync::<FlowSim>();
    assert_send_sync::<CollectiveSchedule>();
    assert_send_sync::<AlphaBeta>();
    assert_send_sync::<LinkRate>();
}
