//! The Palomar optical circuit switch (§2.1).
//!
//! A 136×136 MEMS mirror array: any input fiber can be reflected to any
//! output fiber, connections are strictly 1:1, and switching takes
//! milliseconds. Circulators send light both ways in each fiber, so one
//! "connection" here is a full bidirectional circuit. Eight ports are
//! spares "for link testing and repairs".

use crate::OcsError;
use std::fmt;

/// Total ports on a Palomar OCS (128 usable + 8 spares; from
/// [`tpu_spec::consts`]).
pub const PALOMAR_PORTS: u16 = tpu_spec::consts::PALOMAR_PORTS;

/// Spare ports reserved for link testing and repairs.
pub const PALOMAR_SPARE_PORTS: u16 = tpu_spec::consts::PALOMAR_SPARE_PORTS;

/// A port on an OCS.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(u16);

impl PortId {
    /// Creates a port id.
    pub fn new(index: u16) -> PortId {
        PortId(index)
    }

    /// Raw index.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// One optical circuit switch: a symmetric, 1:1 crossconnect over its
/// ports.
///
/// # Example
///
/// ```
/// use tpu_ocs::{OcsSwitch, PortId};
///
/// let mut ocs = OcsSwitch::palomar();
/// ocs.connect(PortId::new(0), PortId::new(64))?;
/// assert_eq!(ocs.peer(PortId::new(64))?, Some(PortId::new(0)));
/// # Ok::<(), tpu_ocs::OcsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OcsSwitch {
    ports: u16,
    cross: Vec<Option<PortId>>,
    reconfigurations: u64,
}

impl OcsSwitch {
    /// Creates a switch with the given number of ports.
    pub fn new(ports: u16) -> OcsSwitch {
        OcsSwitch {
            ports,
            cross: vec![None; usize::from(ports)],
            reconfigurations: 0,
        }
    }

    /// A Palomar-class 136-port switch.
    pub fn palomar() -> OcsSwitch {
        OcsSwitch::new(PALOMAR_PORTS)
    }

    /// Number of ports.
    pub fn ports(&self) -> u16 {
        self.ports
    }

    fn check(&self, port: PortId) -> Result<(), OcsError> {
        if port.index() >= usize::from(self.ports) {
            Err(OcsError::PortOutOfRange {
                port,
                ports: self.ports,
            })
        } else {
            Ok(())
        }
    }

    /// Establishes a bidirectional circuit between two free ports.
    ///
    /// # Errors
    ///
    /// * [`OcsError::PortOutOfRange`] — a port is beyond the switch radix.
    /// * [`OcsError::SelfConnection`] — `a == b` (a mirror cannot reflect a
    ///   fiber into itself).
    /// * [`OcsError::PortBusy`] — either port already carries a circuit.
    pub fn connect(&mut self, a: PortId, b: PortId) -> Result<(), OcsError> {
        self.check(a)?;
        self.check(b)?;
        if a == b {
            return Err(OcsError::SelfConnection { port: a });
        }
        if self.cross[a.index()].is_some() {
            return Err(OcsError::PortBusy { port: a });
        }
        if self.cross[b.index()].is_some() {
            return Err(OcsError::PortBusy { port: b });
        }
        self.cross[a.index()] = Some(b);
        self.cross[b.index()] = Some(a);
        self.reconfigurations += 1;
        Ok(())
    }

    /// Tears down the circuit at `port` (and its peer). No-op if the port
    /// is free.
    ///
    /// # Errors
    ///
    /// Returns [`OcsError::PortOutOfRange`] for an invalid port.
    pub fn disconnect(&mut self, port: PortId) -> Result<(), OcsError> {
        self.check(port)?;
        if let Some(peer) = self.cross[port.index()].take() {
            self.cross[peer.index()] = None;
            self.reconfigurations += 1;
        }
        Ok(())
    }

    /// The peer currently connected to `port`, if any.
    ///
    /// # Errors
    ///
    /// Returns [`OcsError::PortOutOfRange`] for an invalid port.
    pub fn peer(&self, port: PortId) -> Result<Option<PortId>, OcsError> {
        self.check(port)?;
        Ok(self.cross[port.index()])
    }

    /// Number of active circuits.
    pub fn circuit_count(&self) -> usize {
        self.cross.iter().filter(|c| c.is_some()).count() / 2
    }

    /// All active circuits as (low port, high port) pairs.
    pub fn circuits(&self) -> Vec<(PortId, PortId)> {
        let mut out = Vec::new();
        for (i, c) in self.cross.iter().enumerate() {
            if let Some(peer) = c {
                if i < peer.index() {
                    out.push((PortId::new(i as u16), *peer));
                }
            }
        }
        out
    }

    /// Mirror moves performed since construction (each connect/teardown of
    /// a live circuit is one reconfiguration, taking
    /// [`OCS_RECONFIG_MS`](tpu_spec::consts::OCS_RECONFIG_MS)).
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_and_peer() {
        let mut s = OcsSwitch::palomar();
        s.connect(PortId::new(0), PortId::new(135)).unwrap();
        assert_eq!(s.peer(PortId::new(0)).unwrap(), Some(PortId::new(135)));
        assert_eq!(s.peer(PortId::new(135)).unwrap(), Some(PortId::new(0)));
        assert_eq!(s.circuit_count(), 1);
    }

    #[test]
    fn busy_port_rejected() {
        let mut s = OcsSwitch::new(4);
        s.connect(PortId::new(0), PortId::new(1)).unwrap();
        assert_eq!(
            s.connect(PortId::new(1), PortId::new(2)).unwrap_err(),
            OcsError::PortBusy {
                port: PortId::new(1)
            }
        );
    }

    #[test]
    fn self_connection_rejected() {
        let mut s = OcsSwitch::new(4);
        assert_eq!(
            s.connect(PortId::new(2), PortId::new(2)).unwrap_err(),
            OcsError::SelfConnection {
                port: PortId::new(2)
            }
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let s = OcsSwitch::new(4);
        assert!(matches!(
            s.peer(PortId::new(9)).unwrap_err(),
            OcsError::PortOutOfRange { .. }
        ));
    }

    #[test]
    fn disconnect_frees_both_sides() {
        let mut s = OcsSwitch::new(4);
        s.connect(PortId::new(0), PortId::new(3)).unwrap();
        s.disconnect(PortId::new(3)).unwrap();
        assert_eq!(s.peer(PortId::new(0)).unwrap(), None);
        assert_eq!(s.peer(PortId::new(3)).unwrap(), None);
        assert_eq!(s.circuit_count(), 0);
        // Disconnecting a free port is a no-op.
        s.disconnect(PortId::new(0)).unwrap();
        assert_eq!(s.reconfigurations(), 2);
    }

    #[test]
    fn circuits_listing() {
        let mut s = OcsSwitch::new(6);
        s.connect(PortId::new(4), PortId::new(1)).unwrap();
        s.connect(PortId::new(0), PortId::new(5)).unwrap();
        assert_eq!(
            s.circuits(),
            vec![
                (PortId::new(0), PortId::new(5)),
                (PortId::new(1), PortId::new(4))
            ]
        );
    }

    #[test]
    fn full_crossbar_capacity() {
        // All 68 disjoint circuits fit on a Palomar.
        let mut s = OcsSwitch::palomar();
        for i in 0..68u16 {
            s.connect(PortId::new(i), PortId::new(135 - i)).unwrap();
        }
        assert_eq!(s.circuit_count(), 68);
    }

    #[test]
    fn reconfig_time_accumulates() {
        let mut s = OcsSwitch::new(4);
        s.connect(PortId::new(0), PortId::new(1)).unwrap();
        s.disconnect(PortId::new(0)).unwrap();
        s.connect(PortId::new(0), PortId::new(2)).unwrap();
        assert_eq!(s.reconfigurations(), 3);
    }
}
