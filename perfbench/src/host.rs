//! The host-speed probe. On a shared host, other tenants move how much
//! work a CPU second does by a quarter or more within minutes, and
//! every rate and set-up time with it. A probe thread runs a fixed
//! reference kernel in short slices beside the timed phase, so CPU
//! times can be scaled to a reference host on which one slice takes
//! [`REF_SLICE_S`] of CPU.
//!
//! The kernel is the benchmark's own code, so no change to the program
//! under test changes the yardstick. It churns a `BTreeMap`: branchy,
//! pointer-chasing and allocating, like the event queue, placement and
//! HTTP code it stands beside. The program feels host load more than
//! the kernel does, so the scale is the slice-time ratio raised to
//! [`SENSITIVITY`]. On a 2-vCPU guest whose speed drifted by a third
//! within an hour, that held the medians of four ten-run sets within 6%
//! (serve) and 10% (fleet) of each other, where raw CPU rates moved by
//! up to 45%.
//!
//! The CPUs of one guest slow down independently: a probe on the other
//! vCPU tracked a single-threaded month of fleet DES poorly (correlation
//! 0.45 per month). A single-threaded workload therefore pins itself
//! with [`pin_to_current_cpu`] before it starts the probe, which then
//! slices on the same CPU (correlation 0.92).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Entries the reference map keeps: about a megabyte of nodes.
const MAP_ENTRIES: usize = 32_768;
/// Map operations per slice.
const SLICE_OPS: u64 = 60_000;
/// Pause after each slice: the probe takes a few percent of one core.
const GAP: Duration = Duration::from_millis(250);
/// CPU seconds one slice takes on the reference host.
pub const REF_SLICE_S: f64 = 0.03;
/// How much more steeply the program's CPU rates follow host speed than
/// the probe's slices do. Over 30 runs a workload on a 2-vCPU guest, log
/// rate against log slice time had slopes of 1.1 (`serve_cold`), 1.3
/// (`fleet_month`) and 1.45 (`serve_hot`).
const SENSITIVITY: f64 = 1.3;

/// Slices the probe has finished and the CPU seconds its thread has
/// used since its map was built.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Reading {
    /// Slices finished.
    pub slices: u64,
    /// CPU seconds of the probe thread, read at the end of the last
    /// slice.
    pub cpu_s: f64,
}

impl Reading {
    /// Mean CPU seconds per slice from `earlier` to this reading, or
    /// `None` when no slice finished in between.
    pub fn slice_s_since(&self, earlier: Reading) -> Option<f64> {
        let slices = self.slices.checked_sub(earlier.slices)?;
        (slices > 0).then(|| (self.cpu_s - earlier.cpu_s) / slices as f64)
    }
}

/// What to multiply a CPU or set-up time measured on this host by to
/// get the reference host's, given the host's mean slice time.
pub fn to_reference(slice_s: f64) -> f64 {
    (REF_SLICE_S / slice_s).powf(SENSITIVITY)
}

/// Words of glibc's `cpu_set_t`: 1024 CPUs.
const CPU_SET_WORDS: usize = 16;

/// Pins the calling thread to the CPU it is running on and returns that
/// CPU. Threads it spawns afterwards inherit the mask, so a [`Probe`]
/// started after this call slices on the caller's CPU.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: takes no arguments; returns a CPU number or -1.
    let cpu = usize::try_from(unsafe { sched_getcpu() })
        .map_err(|_| "sched_getcpu failed".to_string())?;
    let mut mask = [0u64; CPU_SET_WORDS];
    *mask
        .get_mut(cpu / 64)
        .ok_or(format!("CPU {cpu} is beyond the affinity mask"))? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of exactly `cpusetsize` bytes, which
    // the call only reads; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(cpu)
}

struct Shared {
    stop: AtomicBool,
    reading: Mutex<Reading>,
}

/// The running probe thread. Dropping it stops and joins the thread.
pub struct Probe {
    shared: Arc<Shared>,
    handle: Option<JoinHandle<Result<(), String>>>,
}

impl Probe {
    /// Builds the reference map and starts slicing on a thread of its
    /// own.
    pub fn start() -> Probe {
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            reading: Mutex::new(Reading::default()),
        });
        let inner = Arc::clone(&shared);
        let handle = std::thread::spawn(move || {
            let mut map = BTreeMap::new();
            let mut x = 0x9E37_79B9_7F4A_7C15;
            while map.len() < MAP_ENTRIES {
                map.insert(next(&mut x) >> 40, x);
            }
            let cpu0 = crate::thread_cpu_s()?;
            while !inner.stop.load(Ordering::SeqCst) {
                black_box(churn(&mut map, &mut x, SLICE_OPS));
                let cpu_s = crate::thread_cpu_s()? - cpu0;
                // Plain stores that cannot panic: a poisoned lock still
                // guards a whole reading.
                let mut r = inner.reading.lock().unwrap_or_else(PoisonError::into_inner);
                r.slices += 1;
                r.cpu_s = cpu_s;
                drop(r);
                std::thread::park_timeout(GAP);
            }
            Ok(())
        });
        Probe {
            shared,
            handle: Some(handle),
        }
    }

    /// The probe's progress so far.
    pub fn reading(&self) -> Reading {
        *self
            .shared
            .reading
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Stops the probe, waits for its thread and returns its mean CPU
    /// seconds per slice.
    pub fn stop(mut self) -> Result<f64, String> {
        self.join()?;
        self.reading()
            .slice_s_since(Reading::default())
            .ok_or_else(|| "no host probe slice finished; raise --seconds".to_string())
    }

    fn join(&mut self) -> Result<(), String> {
        self.shared.stop.store(true, Ordering::SeqCst);
        match self.handle.take() {
            Some(handle) => {
                handle.thread().unpark();
                handle
                    .join()
                    .unwrap_or_else(|_| Err("the probe thread panicked".to_string()))
            }
            None => Ok(()),
        }
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        let _ = self.join();
    }
}

/// One step of a 64-bit linear congruential generator.
fn next(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *x
}

/// The reference kernel: `ops` steps that each remove the first entry
/// at or after a random key and insert one at a new random key, so the
/// map keeps its size.
fn churn(map: &mut BTreeMap<u64, u64>, x: &mut u64, ops: u64) -> usize {
    for _ in 0..ops {
        let probe = next(x) >> 40;
        let victim = map
            .range(probe..)
            .next()
            .or_else(|| map.iter().next())
            .map(|(&k, _)| k);
        if let Some(k) = victim {
            map.remove(&k);
        }
        while map.insert(next(x) >> 40, *x).is_some() {}
    }
    map.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_keeps_the_map_size() {
        let mut map = BTreeMap::new();
        let mut x = 1;
        while map.len() < 1000 {
            map.insert(next(&mut x) >> 40, x);
        }
        assert_eq!(churn(&mut map, &mut x, 10_000), 1000);
    }

    #[test]
    fn slice_time_is_the_mean_between_readings() {
        let a = Reading {
            slices: 4,
            cpu_s: 0.5,
        };
        let b = Reading {
            slices: 12,
            cpu_s: 1.5,
        };
        assert_eq!(b.slice_s_since(a), Some(0.125));
        assert_eq!(a.slice_s_since(a), None);
        assert_eq!(a.slice_s_since(b), None);
        assert_eq!(to_reference(REF_SLICE_S), 1.0);
        assert_eq!(to_reference(2.0 * REF_SLICE_S), 0.5f64.powf(SENSITIVITY));
        assert!(to_reference(0.5 * REF_SLICE_S) > 2.0);
    }
}
