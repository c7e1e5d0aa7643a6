//! Content-partitioned mirroring: shard the flight space across mirror
//! groups.
//!
//! Full replication — every mirror holding every flight — caps a cluster's
//! aggregate capacity at what one site can apply and store. This module
//! multiplies both: the flight-id space is hashed into
//! [`PARTITION_SLOTS`] slots, each slot owned by one **mirror group** (an
//! independent [`Cluster`]: one central plus its mirrors, running the
//! paper's full checkpoint/adaptation protocol over *its* flights only).
//! With `G` groups the cluster holds `G×` the flights and applies `G×` the
//! update stream at flat per-site memory, because each site still stores
//! and applies only its group's share.
//!
//! What stays per-group *for free*, because each group is a whole
//! [`Cluster`]: checkpoint rounds, commit watermarks, journal truncation
//! floors, adaptation, failover. One slow group never stalls another
//! group's commits — per-partition checkpointing falls out of the
//! structure rather than from new protocol.
//!
//! The coordination that *is* new lives here:
//!
//! * **Routing** ([`PartitionedCluster::submit`]): each source event goes
//!   only to the group owning its flight's slot, tracked by a per-group
//!   `routed` counter that doubles as the migration drain target.
//! * **Map carriage**: the authoritative [`PartitionMap`] is installed on
//!   every group coordinator ([`CentralSite::set_partition_map`]), from
//!   where it rides every checkpoint COMMIT to the group's mirrors, fenced
//!   by its own epoch — late joiners converge without a dedicated
//!   broadcast.
//! * **Keyed serving**: gateways share one [`PartitionTable`]; a keyed
//!   request for a flight another group owns fails fast with
//!   [`RequestError::WrongPartition`](crate::requests::RequestError)
//!   naming the owner, which the ois balancer re-routes on.
//! * **Live rebalancing** ([`PartitionedCluster::migrate_slot`]): a slot
//!   moves between groups mid-traffic with zero committed-event loss,
//!   reusing the seeding machinery of elastic scale-out — see the method
//!   docs for the protocol.
//!
//! [`CentralSite::set_partition_map`]: crate::site::CentralSite::set_partition_map

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use mirror_core::event::Event;
use mirror_core::timestamp::VectorTimestamp;
use mirror_core::{FlightId, GroupId, PartitionMap, PARTITION_SLOTS};
use mirror_ede::{FlightMap, OperationalState, Snapshot};

use crate::cluster::{Cluster, ClusterConfig, ClusterStats};
use crate::requests::{GatewayConfig, PartitionTable, RequestGateway};

/// Start-up configuration for a partitioned cluster.
#[derive(Debug, Clone)]
pub struct PartitionedConfig {
    /// Number of mirror groups (clamped to at least 1). The initial map
    /// is [`PartitionMap::uniform`]: slots round-robined across groups.
    pub groups: u16,
    /// Per-group cluster configuration (every group gets the same one).
    /// With durability configured, each group journals under its own
    /// `group-<g>` subdirectory of the configured root — per-partition
    /// commit and truncation floors stay independent on disk too.
    ///
    /// Groups must replicate their slice fully (the default
    /// [`MirrorFnKind::Simple`](mirror_core::MirrorFnKind) with no
    /// suppression rules): the migration drain barrier equates a group's
    /// per-site processed counts with its routed count, which selective
    /// or coalescing mirroring would break.
    pub group: ClusterConfig,
}

impl Default for PartitionedConfig {
    fn default() -> Self {
        Self { groups: 1, group: ClusterConfig::default() }
    }
}

/// Why a slot migration failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrateError {
    /// The slot is already mid-migration.
    InProgress,
    /// The destination group does not exist.
    NoSuchGroup(GroupId),
    /// The source group failed to drain its routed backlog within the
    /// deadline; the slot was rolled back to its original owner and the
    /// events buffered meanwhile were replayed there — no loss.
    DrainTimeout,
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::InProgress => write!(f, "slot already migrating"),
            MigrateError::NoSuchGroup(g) => write!(f, "no partition group {g}"),
            MigrateError::DrainTimeout => write!(f, "source group failed to drain in time"),
        }
    }
}
impl std::error::Error for MigrateError {}

/// What a completed [`PartitionedCluster::migrate_slot`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationReport {
    /// The migrated slot.
    pub slot: usize,
    /// The group that owned it before.
    pub from: GroupId,
    /// The group that owns it now.
    pub to: GroupId,
    /// Flights captured at the source and merged into the target group.
    pub moved_flights: usize,
    /// Events buffered during the freeze and replayed into the target.
    pub replayed: usize,
    /// Partition-map epoch after the move.
    pub epoch: u64,
}

/// Per-slot routing state. The mutex is the migration linchpin: a submit
/// holds it across counter-increment-plus-delivery, so when the migrator
/// freezes the slot and *then* reads the source group's routed counter,
/// that read covers every event that will ever reach the source — the
/// drain barrier can't pass with a slot event still in flight. Off
/// migration the lock is uncontended (one of [`PARTITION_SLOTS`], held
/// for one submit into the owning group's inbox).
struct SlotRoute {
    /// Owning group.
    owner: GroupId,
    /// Frozen for migration: submits buffer instead of routing.
    migrating: bool,
    /// Events buffered while frozen, replayed into the new owner in
    /// arrival order at the flip.
    buffer: Vec<Event>,
}

struct Group {
    cluster: Cluster,
    /// Events routed to this group so far — the migration drain target.
    routed: AtomicU64,
}

/// A cluster of mirror groups jointly serving a content-partitioned
/// flight space. See the [module docs](self) for the architecture.
pub struct PartitionedCluster {
    groups: Vec<Group>,
    routes: Vec<Mutex<SlotRoute>>,
    /// The authoritative map; epoch bumps happen here, then publish to
    /// the gateway table and every group coordinator.
    map: Mutex<PartitionMap>,
    /// Shared with every gateway spawned via
    /// [`serve_group_requests`](Self::serve_group_requests).
    table: Arc<PartitionTable>,
}

impl PartitionedCluster {
    /// Start `cfg.groups` mirror groups under a uniform partition map.
    pub fn start(cfg: PartitionedConfig) -> Self {
        let n = cfg.groups.max(1);
        let map = PartitionMap::uniform(n);
        let groups: Vec<Group> = (0..n)
            .map(|g| {
                let mut gc = cfg.group.clone();
                if let Some(d) = &mut gc.durability {
                    d.dir = d.dir.join(format!("group-{g}"));
                }
                let cluster = Cluster::start(gc);
                cluster.central().set_partition_map(map.clone());
                Group { cluster, routed: AtomicU64::new(0) }
            })
            .collect();
        let routes = (0..PARTITION_SLOTS)
            .map(|s| {
                Mutex::new(SlotRoute {
                    owner: map.group_of_slot(s),
                    migrating: false,
                    buffer: Vec::new(),
                })
            })
            .collect();
        let table = Arc::new(PartitionTable::new(map.clone()));
        PartitionedCluster { groups, routes, map: Mutex::new(map), table }
    }

    /// Number of mirror groups.
    pub fn groups(&self) -> usize {
        self.groups.len()
    }

    /// The group cluster `g` (for per-group operations: failover, edge
    /// tiers, journaling — everything a standalone [`Cluster`] can do).
    pub fn group(&self, g: GroupId) -> &Cluster {
        &self.groups[g as usize].cluster
    }

    /// A clone of the authoritative partition map.
    pub fn map(&self) -> PartitionMap {
        self.map.lock().clone()
    }

    /// Current partition-map epoch.
    pub fn epoch(&self) -> u64 {
        self.map.lock().epoch()
    }

    /// The group currently owning `flight`'s slot.
    pub fn group_of(&self, flight: FlightId) -> GroupId {
        self.routes[PartitionMap::slot_of(flight)].lock().owner
    }

    /// Events routed to each group so far.
    pub fn routed_per_group(&self) -> Vec<u64> {
        self.groups.iter().map(|g| g.routed.load(Ordering::SeqCst)).collect()
    }

    /// Route one source event to the group owning its flight's slot; a
    /// frozen (mid-migration) slot buffers it for replay at the flip.
    pub fn submit(&self, event: Event) {
        let slot = PartitionMap::slot_of(event.flight);
        let mut route = self.routes[slot].lock();
        if route.migrating {
            route.buffer.push(event);
            return;
        }
        let g = route.owner as usize;
        // Count, then deliver, both under the slot lock: the migrator's
        // post-freeze read of `routed` covers this event (see SlotRoute).
        self.groups[g].routed.fetch_add(1, Ordering::SeqCst);
        self.groups[g].cluster.submit(event);
    }

    /// Spawn a partition-aware request gateway on group `g`'s central:
    /// keyed requests for flights the group doesn't own are refused with
    /// [`RequestError::WrongPartition`](crate::requests::RequestError)
    /// through the shared, migration-updated [`PartitionTable`].
    pub fn serve_group_requests(&self, g: GroupId, mut cfg: GatewayConfig) -> RequestGateway {
        cfg.partition = Some((g, Arc::clone(&self.table)));
        self.groups[g as usize].cluster.central().serve_requests_with(cfg)
    }

    /// Block until every group has applied everything routed to it (at
    /// the central *and* every mirror), or the timeout expires.
    pub fn wait_quiesced(&self, timeout: Duration) -> bool {
        self.groups.iter().all(|g| {
            let target = g.routed.load(Ordering::SeqCst);
            g.cluster.wait_all_processed(target, timeout)
        })
    }

    /// Per-group cluster statistics, group order.
    pub fn stats(&self) -> Vec<ClusterStats> {
        self.groups.iter().map(|g| g.cluster.stats()).collect()
    }

    /// The union state hash across all group centrals — equals the
    /// [`state_hash`](OperationalState::state_hash) a single
    /// unpartitioned site would report after applying the same events,
    /// because the groups' flight sets are disjoint. The equivalence
    /// check experiments assert.
    pub fn union_state_hash(&self) -> u64 {
        let states: Vec<OperationalState> = self
            .groups
            .iter()
            .map(|g| {
                g.cluster
                    .snapshot(mirror_core::CENTRAL_SITE)
                    .expect("group central snapshot")
                    .into_state()
            })
            .collect();
        mirror_ede::union_state_hash(states.iter())
    }

    /// Total flights held across group centrals (disjoint by
    /// construction, so this is the cluster's aggregate flight count).
    pub fn total_flights(&self) -> usize {
        self.groups
            .iter()
            .map(|g| {
                g.cluster
                    .snapshot(mirror_core::CENTRAL_SITE)
                    .expect("group central snapshot")
                    .flight_count()
            })
            .sum()
    }

    /// Move `slot` to group `to` while traffic keeps flowing, with zero
    /// committed-event loss:
    ///
    /// 1. **Freeze** the slot: subsequent submits buffer instead of
    ///    routing (owner unchanged, so reads still resolve).
    /// 2. **Drain barrier**: read the source group's routed counter
    ///    *after* the freeze — the slot-lock ordering means it covers
    ///    every event that will ever reach the source — and wait until
    ///    every source site (central and mirrors) has processed that
    ///    many events.
    /// 3. **Capture** the slot's flights from the drained source central.
    /// 4. **Merge-seed** the capture into *every* site of the target
    ///    group (quiesced against its apply pipeline; resident flights
    ///    survive — this is [`merge_seed`], the partition-sharing twin of
    ///    the scale-out seeding path).
    /// 5. **Flip and replay**: retarget the slot and replay the buffered
    ///    events into the target, in arrival order, on top of the merge.
    /// 6. **Publish**: bump the map epoch; install in the gateway table
    ///    (misrouted clients redirect immediately) and on every group
    ///    coordinator (mirrors learn it off the next COMMIT).
    /// 7. **Purge** the slot's flights from every source-group site,
    ///    reclaiming their memory.
    ///
    /// On a drain timeout the slot rolls back: unfrozen under its
    /// original owner with the buffer replayed there — no loss either
    /// way.
    ///
    /// [`merge_seed`]: crate::site::CentralSite::merge_seed
    pub fn migrate_slot(
        &self,
        slot: usize,
        to: GroupId,
        drain_timeout: Duration,
    ) -> Result<MigrationReport, MigrateError> {
        assert!(slot < PARTITION_SLOTS, "slot {slot} out of range");
        if (to as usize) >= self.groups.len() {
            return Err(MigrateError::NoSuchGroup(to));
        }
        // Phase 1: freeze.
        let from = {
            let mut route = self.routes[slot].lock();
            if route.migrating {
                return Err(MigrateError::InProgress);
            }
            if route.owner == to {
                return Ok(MigrationReport {
                    slot,
                    from: to,
                    to,
                    moved_flights: 0,
                    replayed: 0,
                    epoch: self.epoch(),
                });
            }
            route.migrating = true;
            route.owner
        };
        // Phase 2: drain barrier on the whole source group.
        let source = &self.groups[from as usize];
        let target_routed = source.routed.load(Ordering::SeqCst);
        if !source.cluster.wait_all_processed(target_routed, drain_timeout) {
            // Roll back: unfreeze under the original owner, replay the
            // buffer there in arrival order.
            let mut route = self.routes[slot].lock();
            route.migrating = false;
            let buffered: Vec<Event> = route.buffer.drain(..).collect();
            for ev in buffered {
                source.routed.fetch_add(1, Ordering::SeqCst);
                source.cluster.submit(ev);
            }
            return Err(MigrateError::DrainTimeout);
        }
        // Phase 3: capture the slot's flights from the drained source,
        // through its unified state-transfer provider (a fresh capture —
        // the drain barrier already guaranteed the frontier covers the
        // cutover watermark). A one-shot read: no slot keeps it.
        let snap = source.cluster.central().state_sync().capture();
        let mut flights = FlightMap::default();
        for (&id, view) in snap.iter() {
            if PartitionMap::slot_of(id) == slot {
                flights.insert(id, view.clone());
            }
        }
        let moved_flights = flights.len();
        let seed = Snapshot::from_parts(flights, VectorTimestamp::empty()).into_state();
        // Phase 4: merge into every target-group site (blocking acks: the
        // replay below must land on top of the merge everywhere).
        let target = &self.groups[to as usize];
        target.cluster.central().merge_seed(seed.clone());
        for site in target.cluster.mirror_ids() {
            target.cluster.mirror(site).merge_seed(seed.clone());
        }
        // Phase 5: flip the route and replay the freeze-window buffer.
        let replayed = {
            let mut route = self.routes[slot].lock();
            route.owner = to;
            route.migrating = false;
            let buffered: Vec<Event> = route.buffer.drain(..).collect();
            let n = buffered.len();
            for ev in buffered {
                target.routed.fetch_add(1, Ordering::SeqCst);
                target.cluster.submit(ev);
            }
            n
        };
        // Phase 6: publish the re-mapped epoch everywhere.
        let new_map = {
            let mut m = self.map.lock();
            m.assign(slot, to);
            m.clone()
        };
        let epoch = new_map.epoch();
        self.table.install(new_map.clone());
        for g in &self.groups {
            g.cluster.central().set_partition_map(new_map.clone());
        }
        // Phase 7: purge the moved flights from every source-group site.
        let keep: Arc<dyn Fn(FlightId) -> bool + Send + Sync> =
            Arc::new(move |f| PartitionMap::slot_of(f) != slot);
        source.cluster.central().retain_flights(Arc::clone(&keep));
        for site in source.cluster.mirror_ids() {
            source.cluster.mirror(site).retain_flights(Arc::clone(&keep));
        }
        Ok(MigrationReport { slot, from, to, moved_flights, replayed, epoch })
    }

    /// Stop every group.
    pub fn shutdown(self) {
        for g in self.groups {
            g.cluster.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirror_core::event::PositionFix;

    fn fix(seed: u32) -> PositionFix {
        PositionFix {
            lat: seed as f64,
            lon: -(seed as f64),
            alt_ft: 30_000.0,
            speed_kts: 450.0,
            heading_deg: (seed % 360) as f64,
        }
    }

    fn partitioned(groups: u16) -> PartitionedCluster {
        PartitionedCluster::start(PartitionedConfig {
            groups,
            group: ClusterConfig { mirrors: 1, ..ClusterConfig::default() },
        })
    }

    /// The equivalence backbone: events routed per-group yield a union
    /// state hash identical to one site applying the whole stream.
    #[test]
    fn partitioned_union_hash_matches_unpartitioned() {
        let pc = partitioned(2);
        let mut reference = OperationalState::new();
        for seq in 0..400u64 {
            let ev = Event::faa_position(seq, (seq % 37) as FlightId, fix(seq as u32));
            reference.apply(&ev);
            pc.submit(ev);
        }
        assert!(pc.wait_quiesced(Duration::from_secs(20)), "groups must drain");
        assert_eq!(pc.union_state_hash(), reference.state_hash());
        assert_eq!(pc.total_flights(), 37);
        // Both groups actually took traffic under the uniform map.
        assert!(pc.routed_per_group().iter().all(|&r| r > 0));
        pc.shutdown();
    }

    #[test]
    fn submit_routes_by_owning_group_only() {
        let pc = partitioned(2);
        let map = pc.map();
        let f0 = (0..).find(|&f| map.group_of(f) == 0).unwrap();
        let f1 = (0..).find(|&f| map.group_of(f) == 1).unwrap();
        for seq in 0..10u64 {
            pc.submit(Event::faa_position(seq, f0, fix(1)));
        }
        pc.submit(Event::faa_position(99, f1, fix(2)));
        assert!(pc.wait_quiesced(Duration::from_secs(10)));
        assert_eq!(pc.routed_per_group(), vec![10, 1]);
        let s0 = pc.group(0).snapshot(mirror_core::CENTRAL_SITE).unwrap();
        let s1 = pc.group(1).snapshot(mirror_core::CENTRAL_SITE).unwrap();
        assert_eq!(s0.flight_count(), 1);
        assert_eq!(s1.flight_count(), 1);
        assert!(s0.flight(f0).is_some() && s1.flight(f1).is_some());
        pc.shutdown();
    }

    #[test]
    fn migrate_slot_moves_flights_and_bumps_epoch() {
        let pc = partitioned(2);
        let map = pc.map();
        let f = (0..).find(|&f| map.group_of(f) == 0).unwrap();
        let slot = PartitionMap::slot_of(f);
        let mut reference = OperationalState::new();
        for seq in 0..50u64 {
            let ev = Event::faa_position(seq, f, fix(seq as u32));
            reference.apply(&ev);
            pc.submit(ev);
        }
        let before = pc.epoch();
        let report = pc.migrate_slot(slot, 1, Duration::from_secs(20)).expect("migrate");
        assert_eq!((report.from, report.to), (0, 1));
        assert!(report.moved_flights >= 1);
        assert!(report.epoch > before, "epoch must advance");
        assert_eq!(pc.group_of(f), 1);
        assert_eq!(pc.table.group_of(f), 1, "gateway table must learn the move");
        // Post-migration traffic routes to — and applies at — the target.
        for seq in 50..80u64 {
            let ev = Event::faa_position(seq, f, fix(seq as u32));
            reference.apply(&ev);
            pc.submit(ev);
        }
        assert!(pc.wait_quiesced(Duration::from_secs(20)));
        assert_eq!(pc.union_state_hash(), reference.state_hash());
        // The source central gave the flight's memory back.
        let src = pc.group(0).snapshot(mirror_core::CENTRAL_SITE).unwrap();
        assert!(src.flight(f).is_none(), "source must purge migrated flights");
        // Group coordinators adopted the bumped map for COMMIT carriage.
        assert_eq!(pc.group(1).central().partition_epoch(), report.epoch);
        pc.shutdown();
    }

    #[test]
    fn migrate_to_self_and_bad_group_are_cheap() {
        let pc = partitioned(2);
        let slot = 0;
        let owner = pc.map().group_of_slot(slot);
        let r = pc.migrate_slot(slot, owner, Duration::from_secs(1)).unwrap();
        assert_eq!(r.moved_flights, 0);
        assert_eq!(
            pc.migrate_slot(slot, 9, Duration::from_secs(1)),
            Err(MigrateError::NoSuchGroup(9))
        );
        pc.shutdown();
    }
}
