//! # mirror-sim — deterministic discrete-event cluster simulator
//!
//! The paper's experiments ran on an eight-node cluster of 300 MHz
//! Pentium-III dual-processor servers (Solaris 5.5.1) with httperf clients
//! on 100 Mbps Ethernet. We do not have that testbed; what the figures
//! actually encode, though, is the *relative* cost structure — per-event
//! processing vs. per-byte mirroring traffic vs. request-servicing work —
//! and how mirroring policies trade them. This crate provides the
//! substrate on which those experiments rerun deterministically:
//!
//! * [`engine`] — a classic discrete-event scheduler (binary heap, virtual
//!   microsecond clock, stable FIFO tie-breaking) over a set of *nodes*
//!   (serial CPU resources) connected by *links*;
//! * [`link`] — links with latency + bandwidth and a serialization queue,
//!   so a message occupies its link for `bytes / bandwidth` before
//!   propagating;
//! * [`costmodel`] — the calibrated constants standing in for the paper's
//!   hardware (documented per constant, tuned so the *no-mirroring*
//!   baseline and the *simple mirroring* overhead land in the paper's
//!   reported ranges — see EXPERIMENTS.md).
//!
//! The simulator is payload-generic: `mirror-ois` runs the **same**
//! sans-IO `AuxUnit`/`Ede` state machines under it that `mirror-runtime`
//! runs on real threads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costmodel;
pub mod engine;
pub mod link;

pub use costmodel::CostModel;
pub use engine::{NodeId, Sim, SimProcess, Step};
pub use link::LinkParams;

/// Virtual time in microseconds.
pub type SimTime = u64;

/// Convert seconds to sim time.
pub fn secs(s: f64) -> SimTime {
    (s * 1_000_000.0) as SimTime
}

/// Convert sim time to seconds.
pub fn as_secs(t: SimTime) -> f64 {
    t as f64 / 1_000_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_conversions_roundtrip() {
        assert_eq!(secs(1.5), 1_500_000);
        assert!((as_secs(2_500_000) - 2.5).abs() < 1e-9);
    }
}
