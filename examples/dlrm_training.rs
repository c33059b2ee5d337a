//! Training a production recommender: SparseCore vs the alternatives
//! (§3, Figures 8–9).
//!
//! Builds the DLRM0 descriptor, shards its ~80 GB of embeddings over a
//! 128-chip slice, generates a synthetic batch to measure deduplication,
//! and compares embedding placements.
//!
//! ```sh
//! cargo run --release --example dlrm_training
//! ```

use tpuv4::embedding::{BatchGenerator, DlrmConfig, ShardingPlan};
use tpuv4::sparsecore::{EmbeddingSystem, Placement, WorkloadProfile};
use tpuv4::MachineSpec;

fn main() {
    let model = DlrmConfig::dlrm0();
    println!(
        "{}: {:.0}M dense params, {:.1}B embedding params in {} tables, {} features",
        model.name(),
        model.dense_params() as f64 / 1e6,
        model.embedding_param_count() as f64 / 1e9,
        model.tables().len(),
        model.features().len()
    );

    // Shard over 128 chips: small tables replicated, big ones row-sharded.
    let chips = 128;
    let plan = ShardingPlan::auto(&model, chips, 32 << 20);
    let per_chip = plan.per_chip_bytes(&model);
    println!(
        "sharding over {chips} chips: max {:.2} GiB/chip (imbalance {:.3}), remote lookups {:.1}%",
        *per_chip.iter().max().unwrap() as f64 / (1 << 30) as f64,
        plan.imbalance(&model),
        plan.remote_lookup_fraction(&model) * 100.0
    );

    // Measure dedup on a real synthetic batch (Zipf-skewed features).
    let batch = BatchGenerator::new(&model, 2023).generate(512);
    let stats = batch.stats();
    println!(
        "batch of 512: {} lookups, {} unique, dedup factor {:.2}",
        stats.total_lookups(),
        stats.unique_lookups(),
        stats.dedup_factor()
    );

    // Step time under each placement (Figure 9).
    let system = EmbeddingSystem::for_spec(&MachineSpec::v4(), chips as u64);
    let profile = WorkloadProfile::from_batch(&model, &batch);
    println!(
        "\nplacement comparison on {} (global batch 4096):",
        system.name()
    );
    let sc = system
        .step_time_with_profile(&profile, 4096, Placement::SparseCore)
        .total_s();
    for (label, placement) in [
        ("SparseCore (the paper's design)", Placement::SparseCore),
        ("TensorCore (no SC)", Placement::TensorCore),
        ("Embeddings on host CPU", Placement::HostCpu),
        ("Embeddings on variable servers", Placement::VariableServer),
    ] {
        let t = system
            .step_time_with_profile(&profile, 4096, placement)
            .total_s();
        println!(
            "  {label:34} {:8.2} ms/step  ({:.1}x vs SC)",
            t * 1e3,
            t / sc
        );
    }

    // And the Figure 9 cross-system view.
    println!("\ncross-system (model profile, global batch 4096):");
    let cpu = EmbeddingSystem::cpu_cluster();
    let v3 = EmbeddingSystem::for_spec(&MachineSpec::v3(), chips as u64);
    let t_cpu = cpu.step_time(&model, 4096, Placement::SparseCore).total_s();
    let t_v3 = v3.step_time(&model, 4096, Placement::SparseCore).total_s();
    let t_v4 = system
        .step_time(&model, 4096, Placement::SparseCore)
        .total_s();
    println!("  CPU x576      {:8.2} ms/step (1.0x)", t_cpu * 1e3);
    println!(
        "  TPU v3 x128   {:8.2} ms/step ({:.1}x, paper: 9.8x)",
        t_v3 * 1e3,
        t_cpu / t_v3
    );
    println!(
        "  TPU v4 x128   {:8.2} ms/step ({:.1}x, paper: 30.1x)",
        t_v4 * 1e3,
        t_cpu / t_v4
    );
}
