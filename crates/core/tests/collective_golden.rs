//! Every collective quote `Supercomputer::collective_time` gives on the
//! committed machines, pinned bit for bit.
//!
//! For each `specs/*.json` the test builds the fleet-scale machine,
//! submits each shape of [`SHAPES`] as a regular slice and, where the
//! machine places one, as the paper's twisted slice, and quotes every
//! all-reduce of [`ALL_REDUCE_BYTES`] and every all-to-all of
//! [`ALL_TO_ALL_BYTES`] on it. A shape the machine refuses is skipped.
//! The quotes' `f64::to_bits` (little-endian, in that order) are hashed
//! with FNV-1a 64 into one digest per spec. The digests were written
//! once and are never regenerated: any change to how a collective is
//! priced, or to which slices a machine places, shows up here.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use tpu_core::{Collective, JobSpec, Supercomputer};
use tpu_ocs::SliceSpec;
use tpu_spec::hash::fnv1a_64;
use tpu_spec::MachineSpec;
use tpu_topology::SliceShape;

/// `(spec, quotes, digest)` per committed spec, in file-name order.
const DIGESTS: [(&str, usize, u64); 9] = [
    ("a100", 24, 0xF43238E7DB99C877),
    ("h100", 24, 0xB517142B917FB589),
    ("ipu-bow", 18, 0xF25E62FB246B1696),
    ("v2", 18, 0xA600E7F60F7695E5),
    ("v3", 24, 0x5E24B16EFCF1B687),
    ("v3-ocs", 36, 0xE465B8068CA6CDF6),
    ("v4", 36, 0x4F5DD5D57EF65B1D),
    ("v4-half", 36, 0x4F5DD5D57EF65B1D),
    ("v4-ib", 24, 0xB182A3E7022DAD39),
];

/// Slice shapes quoted, smallest first. 8×8×16 is left out: its
/// all-to-all alone costs seconds in a debug build.
const SHAPES: [(u32, u32, u32); 4] = [(4, 4, 4), (4, 4, 8), (4, 8, 8), (8, 8, 8)];

/// All-reduce payloads: 1 B, 4 KiB and 1 GiB.
const ALL_REDUCE_BYTES: [u64; 3] = [1, 4 << 10, 1 << 30];

/// All-to-all bytes per ordered pair: 1 B, 4 KiB and 1 MiB.
const ALL_TO_ALL_BYTES: [u64; 3] = [1, 4 << 10, 1 << 20];

fn committed_specs() -> Vec<(String, MachineSpec)> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs"));
    let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("specs/ directory exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            let text = fs::read_to_string(&p).expect("readable spec");
            (name, MachineSpec::from_json(&text).expect("valid spec"))
        })
        .collect()
}

/// Every operation quoted on each placed slice, in hashing order.
fn operations() -> Vec<Collective> {
    let all_reduce = ALL_REDUCE_BYTES
        .iter()
        .map(|&bytes| Collective::AllReduce { bytes });
    let all_to_all = ALL_TO_ALL_BYTES
        .iter()
        .map(|&bytes_per_pair| Collective::AllToAll { bytes_per_pair });
    all_reduce.chain(all_to_all).collect()
}

/// The quote count and digest of one machine.
fn quote_digest(spec: &MachineSpec) -> (usize, u64) {
    let mut machine = Supercomputer::for_spec(spec);
    let mut bytes = Vec::new();
    let mut quotes = 0;
    for (x, y, z) in SHAPES {
        let shape = SliceShape::new(x, y, z).expect("positive dimensions");
        let requests =
            std::iter::once(SliceSpec::regular(shape)).chain(SliceSpec::twisted(shape).ok());
        for request in requests {
            let Ok(id) = machine.submit(JobSpec::new("golden", request)) else {
                continue;
            };
            for op in operations() {
                let seconds = machine.collective_time(id, op).expect("running job");
                bytes.extend_from_slice(&seconds.to_bits().to_le_bytes());
                quotes += 1;
            }
            machine.finish(id).expect("running job");
        }
    }
    (quotes, fnv1a_64(&bytes))
}

#[test]
fn every_committed_spec_quotes_the_pinned_collective_bits() {
    let observed: BTreeMap<String, (usize, u64)> = committed_specs()
        .into_iter()
        .map(|(name, spec)| (name, quote_digest(&spec)))
        .collect();
    let expected: BTreeMap<String, (usize, u64)> = DIGESTS
        .iter()
        .map(|&(name, quotes, digest)| (name.to_string(), (quotes, digest)))
        .collect();
    assert_eq!(
        expected, observed,
        "collective quotes drifted from the pinned digests"
    );
}
