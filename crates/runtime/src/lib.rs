//! # mirror-runtime — the real threads-and-channels runtime
//!
//! `mirror-sim` reruns the paper's experiments deterministically; this
//! crate runs the *same* sans-IO site logic (`mirror_core::AuxUnit`,
//! `mirror_ede::Ede`) as an actual concurrent system: one thread per unit,
//! typed `mirror-echo` event channels between sites, `parking_lot` guarding
//! the shared state the paper's three auxiliary tasks synchronize over.
//!
//! The entry point is [`cluster::Cluster`]: start a central site plus *n*
//! in-process mirror sites, push source events, watch regular-client
//! updates flow out of the central EDE, request initial-state snapshots
//! from any mirror, and reconfigure mirroring live through the Table-1
//! [`mirror_core::MirrorHandle`]. The [`bridge`] module pumps a site's
//! data/control channels over a `mirror-echo` TCP transport so mirrors can
//! live in other processes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod applypool;
pub mod bridge;
pub mod clock;
pub mod cluster;
pub mod durability;
pub mod failover;
pub mod partition;
pub mod requests;
pub mod site;
pub mod statesync;
pub mod wan;

pub use applypool::{ApplyPool, ApplyPoolConfig, ApplySink};
pub use clock::RuntimeClock;
pub use cluster::{Cluster, ClusterConfig, ClusterStats, MirrorRef, ScaleEvent, SiteStats};
pub use durability::{DurabilityConfig, Journal, ResyncOutcome, ResyncSource};
pub use failover::{CtrlCadence, FailoverEvent, FailoverPolicy};
pub use partition::{MigrateError, MigrationReport, PartitionedCluster, PartitionedConfig};
pub use requests::{
    GatewayConfig, PartitionTable, RequestClient, RequestError, RequestGate, RequestGateway,
};
pub use site::{CentralSite, MirrorSite, SiteOverload, DEFAULT_INBOX_CAPACITY};
pub use statesync::{
    ServedDelta, ServedSnapshot, SnapshotCachePolicy, StateSync, SyncStateProvider, Transfer,
};
pub use wan::{WanMirror, WanMirrorConfig, WanReadError, WanResync};
