//! A failure or repair that names a unit past the machine's blocks or
//! islands, or a host past a unit's hosts, gets the host-health
//! record's typed error and changes nothing — on every committed spec,
//! whose units hold 16 hosts (v4 blocks), 8 (v3 blocks, on the static
//! machine and behind OCSes alike) or an island's count.

use tpu_core::{Supercomputer, SupercomputerError};
use tpu_ocs::{BlockId, OcsError};
use tpu_spec::MachineSpec;

#[test]
fn out_of_range_hosts_and_units_get_typed_errors_on_every_spec() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("specs directory")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 5,
        "expected the committed specs, got {paths:?}"
    );
    for path in paths {
        let name = path.display();
        let spec = MachineSpec::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let (units, _, hosts) = spec.scheduling_units();
        let (past, last) = (BlockId::new(units as u32), BlockId::new(units as u32 - 1));
        let unknown_unit = SupercomputerError::Fabric(OcsError::UnknownBlock { block: past });
        let unknown_host = SupercomputerError::Fabric(OcsError::UnknownHost {
            block: last,
            host: hosts,
        });
        let mut machine = Supercomputer::for_spec(&spec);
        let pristine = machine.clone();
        for (id, host, want) in [(past, 0, &unknown_unit), (last, hosts, &unknown_host)] {
            assert_eq!(
                machine.inject_host_failure(id, host).as_ref(),
                Err(want),
                "{name}"
            );
            assert_eq!(machine.repair_host(id, host).as_ref(), Err(want), "{name}");
        }
        assert_eq!(machine, pristine, "{name}");
        // The last in-range host of the last unit is a real host.
        machine.inject_host_failure(last, hosts - 1).unwrap();
        assert_ne!(machine, pristine, "{name}");
        machine.repair_host(last, hosts - 1).unwrap();
        assert_eq!(machine, pristine, "{name}");
    }
}
