//! # mirror-ois — the assembled Operational Information System server
//!
//! This crate wires the pieces into the paper's system (Figure 2): a
//! central site receiving the FAA/Delta streams, mirror sites fed over
//! data/control channels, Event Derivation Engines at every main unit, and
//! client requests balanced across sites. It provides:
//!
//! * [`payload`] — the message vocabulary flowing between simulated nodes;
//! * [`site`] — [`site::SiteProcess`], the per-node glue that runs the
//!   sans-IO `AuxUnit` + `Ede` under the discrete-event simulator and
//!   charges the calibrated cost model for every action;
//! * [`balancer`] — client-request load-balancing policies (round-robin /
//!   least-pending) plus mirror-failure failover;
//! * [`experiment`] — the harness behind every figure: build a cluster,
//!   replay a workload and a request schedule, collect total execution
//!   time, update-delay statistics and series, per-site counters, and
//!   cross-mirror consistency hashes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balancer;
pub mod experiment;
pub mod payload;
pub mod site;

pub use balancer::{Balancer, BalancerPolicy, GroupRouter};
pub use experiment::{ExperimentConfig, ExperimentResult, Ingest, RequestTargets};
pub use payload::Payload;
pub use site::{ClientSink, JournalCost, SiteProcess, SnapshotCacheCost};
