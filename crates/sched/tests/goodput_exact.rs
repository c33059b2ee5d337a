//! Monte Carlo goodput against exact answers.
//!
//! A trial draws each unit (4³ block or switched island) up with
//! probability p = availabilityʰᵒˢᵗˢ, so the healthy count is
//! H ~ Binomial(n, p) over the n units. Wherever a trial's placed
//! share is a function of H alone, goodput has an exact value:
//!
//! * the reconfigurable arm places ⌊H/b⌋·b of n units for a slice of b
//!   units, on the OCS plugboard and behind a switched fat tree alike;
//! * the static arm places the same at b = 1 (every healthy block is a
//!   one-block box) and at b = n (the whole grid fits only when every
//!   block is up).
//!
//! So E = E[⌊H/b⌋·b]/n, and σ is that per-trial quantity's standard
//! deviation. On grids of at most 16 blocks (v2, v3, v3-ocs) the static
//! arm has an exact answer at every slice size too: all 2ⁿ block-health
//! states go through `place_static`, each weighted by pᵘᵖ(1 − p)ᵈᵒʷⁿ.
//!
//! Every check asserts |MC − E| ≤ 4σ/√trials. The golden digests in
//! `fleet_golden` pin whatever bits the code produces; this test checks
//! that they are the right bits, with a bound that does not depend on
//! the RNG stream.

use std::fs;
use std::path::PathBuf;
use tpu_sched::goodput::{place_static, slice_geometry};
use tpu_sched::{GoodputSim, PlannerModel};
use tpu_spec::{FabricKind, MachineSpec};

const TRIALS: u32 = 1000;
const AVAILABILITIES: [f64; 4] = [0.97, 0.99, 0.995, 0.999];

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

/// The Binomial(n, p) probability mass function, summed in log space so
/// that (1 − p)ⁿ does not underflow on the 1 054-island rail.
fn binomial_pmf(n: u64, p: f64) -> Vec<f64> {
    let (ln_p, ln_q) = (p.ln(), (1.0 - p).ln());
    let mut ln_choose = 0.0;
    (0..=n)
        .map(|k| {
            if k > 0 {
                ln_choose += ((n - k + 1) as f64).ln() - (k as f64).ln();
            }
            (ln_choose + k as f64 * ln_p + (n - k) as f64 * ln_q).exp()
        })
        .collect()
}

/// The share of the n units placed for a slice of b units when h are
/// up, as (share, share²) for h = 0..=n: ⌊h/b⌋·b/n whichever units are up.
fn floor_shares(n: u64, b: u64) -> Vec<(f64, f64)> {
    (0..=n)
        .map(|h| {
            let share = (h / b * b) as f64 / n as f64;
            (share, share * share)
        })
        .collect()
}

/// The static arm's share on a grid small enough to enumerate: every one
/// of the 2ⁿ block-health states through `place_static`, with the share
/// and its square averaged over the states that have h blocks up.
fn enumerated_static_shares(model: &PlannerModel, slice_chips: u64) -> Vec<(f64, f64)> {
    let n = model.blocks() as usize;
    let (slice_box, _, blocks_needed) =
        slice_geometry(model.spec(), model.chips_per_block(), slice_chips);
    let cluster = model.static_arm();
    let mut healthy = vec![false; n];
    let mut sums = vec![(0.0, 0.0, 0u32); n + 1];
    for state in 0u32..1 << n {
        for (i, up) in healthy.iter_mut().enumerate() {
            *up = state >> i & 1 == 1;
        }
        let placed = place_static(cluster, &healthy, slice_box, blocks_needed);
        let share = f64::from(placed) / n as f64;
        let (sum, square, states) = &mut sums[state.count_ones() as usize];
        *sum += share;
        *square += share * share;
        *states += 1;
    }
    sums.into_iter()
        .map(|(sum, square, states)| (sum / f64::from(states), square / f64::from(states)))
        .collect()
}

/// Mean and standard deviation of the placed share for H ~ `pmf`, given
/// each count's mean (share, share²).
fn exact_moments(pmf: &[f64], shares: &[(f64, f64)]) -> (f64, f64) {
    let (mut mean, mut square) = (0.0, 0.0);
    for (&w, &(share, share_sq)) in pmf.iter().zip(shares) {
        mean += w * share;
        square += w * share_sq;
    }
    (mean, (square - mean * mean).max(0.0).sqrt())
}

#[test]
fn every_spec_matches_the_binomial_answer_within_four_sigma() {
    let mut checks = 0;
    let mut worst: (f64, String) = (0.0, String::new());
    for (name, spec) in committed_specs() {
        let sim = GoodputSim::for_spec(&spec, TRIALS, 2023);
        let model = sim.model();
        // The formula counts whole units; a partial last island would
        // need its shortfall subtracted.
        assert_eq!(model.total_chips(), spec.fleet_chips, "{name}");
        let n = u64::from(model.blocks());
        let chips_per_unit = u64::from(model.chips_per_block());
        let reconfigurable = if spec.torus_dims == 0 {
            FabricKind::Switched
        } else {
            FabricKind::Ocs
        };
        let axis: Vec<u64> = sim
            .slice_axis()
            .into_iter()
            .map(|chips| chips / chips_per_unit)
            .collect();
        let mut points: Vec<_> = axis
            .iter()
            .map(|&b| (reconfigurable, b, floor_shares(n, b)))
            .collect();
        points.extend([1, n].map(|b| (FabricKind::Static, b, floor_shares(n, b))));
        if n <= 16 {
            points.extend(axis.iter().map(|&b| {
                let shares = enumerated_static_shares(model, b * chips_per_unit);
                (FabricKind::Static, b, shares)
            }));
        }
        for availability in AVAILABILITIES {
            let p = availability.powi(model.hosts_per_block() as i32);
            let pmf = binomial_pmf(n, p);
            for (fabric, b, shares) in &points {
                let mc = sim.goodput(b * chips_per_unit, availability, *fabric);
                let (exact, sigma) = exact_moments(&pmf, shares);
                let bound = 4.0 * sigma / f64::from(TRIALS).sqrt();
                let at = format!(
                    "{name} {} {b} of {n} units at {availability}",
                    fabric.label()
                );
                assert!(
                    (mc - exact).abs() <= bound,
                    "{at}: Monte Carlo {mc} vs exact {exact} (bound {bound})"
                );
                if sigma > 0.0 {
                    let z = (mc - exact).abs() / (sigma / f64::from(TRIALS).sqrt());
                    if z > worst.0 {
                        worst = (z, at);
                    }
                }
                checks += 1;
            }
        }
    }
    eprintln!("{checks} checks, worst |z| {:.2} at {}", worst.0, worst.1);
}

#[test]
fn binomial_moments_match_closed_forms() {
    // b = 1 gives the binomial mean p and deviation √(p(1 − p)/n);
    // b = n gives pⁿ.
    let (n, p) = (64, 0.9);
    let pmf = binomial_pmf(n, p);
    assert!((pmf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    let (mean, sigma) = exact_moments(&pmf, &floor_shares(n, 1));
    assert!((mean - p).abs() < 1e-12);
    assert!((sigma - (p * (1.0 - p) / n as f64).sqrt()).abs() < 1e-12);
    let (all, _) = exact_moments(&pmf, &floor_shares(n, n));
    assert!((all - p.powi(n as i32)).abs() < 1e-15);
}
