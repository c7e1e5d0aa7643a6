//! # adaptable-mirroring
//!
//! A reproduction of *Adaptable Mirroring in Cluster Servers*
//! (Gavrilovska, Schwan, Oleson — HPDC 2001): middleware-level event
//! mirroring for cluster servers running Operational Information Systems,
//! with application-specific traffic reduction (filtering, overwriting,
//! coalescing, complex sequence/tuple rules), a modified two-phase-commit
//! checkpointing protocol, and threshold-driven runtime adaptation of the
//! mirroring policy.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`core`] — the mirroring engine (the paper's contribution)
//! * [`echo`] — typed event channels, wire format, transports
//! * [`ede`] — the airline Event Derivation Engine substrate
//! * [`edge`] — the massive-fan-out subscriber delivery tier
//! * [`sim`] — the deterministic cluster simulator
//! * [`runtime`] — the threads-and-channels runtime
//! * [`workload`] — FAA/Delta streams, request generators
//! * [`ois`] — assembled OIS server + experiment harness
//!
//! ## Quickstart
//!
//! ```
//! use adaptable_mirroring::runtime::{Cluster, ClusterConfig};
//! use adaptable_mirroring::core::mirrorfn::MirrorFnKind;
//! use adaptable_mirroring::core::event::{Event, PositionFix};
//!
//! let cluster = Cluster::start(ClusterConfig {
//!     mirrors: 2,
//!     kind: MirrorFnKind::Simple,
//!     ..Default::default()
//! });
//! let fix = PositionFix { lat: 33.6, lon: -84.4, alt_ft: 31000.0,
//!                         speed_kts: 450.0, heading_deg: 270.0 };
//! for seq in 1..=100 {
//!     cluster.submit(Event::faa_position(seq, 1, fix));
//! }
//! assert!(cluster.wait_all_processed(100, std::time::Duration::from_secs(5)));
//! // Any mirror can now answer a thin client's initial-state request.
//! let snapshot = cluster.snapshot(2).expect("mirror 2 is live");
//! assert_eq!(snapshot.flight_count(), 1);
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mirror_core as core;
pub use mirror_echo as echo;
pub use mirror_ede as ede;
pub use mirror_edge as edge;
pub use mirror_ois as ois;
pub use mirror_runtime as runtime;
pub use mirror_sim as sim;
pub use mirror_workload as workload;
