//! Cluster-level content partitioning: flight-id hash slots → mirror groups.
//!
//! Full replication caps cluster capacity at one machine's worth of
//! flights — every site applies every event and holds every flight. The
//! [`PartitionMap`] splits the flight space into [`PARTITION_SLOTS`]
//! Fibonacci-hashed slots (the same mix the intra-site shard map uses, see
//! [`crate::hashing`]) and assigns each slot to a **mirror group**: an
//! independent central + mirrors that replicate only their share of the
//! flight space. An 4-group cluster holds ~4× the flights and applies ~4×
//! the aggregate update rate at flat per-site memory.
//!
//! The map is epoch-stamped and distributed the same way adaptation
//! parameters are: piggybacked on checkpoint COMMIT control frames and
//! fenced on receipt — a frame carrying `epoch <= current` is stale and
//! ignored, exactly like membership epochs. Slot migration bumps the
//! epoch, so a mirror that reconnects mid-rebalance converges to the
//! newest assignment no matter which group's commit reaches it first.

use crate::event::FlightId;
use crate::hashing::fib_slot;

/// Identifies a mirror group (an independent central + mirrors owning a
/// subset of the flight space).
pub type GroupId = u16;

/// Number of hash slots in every partition map. Fixed (not per-map) so
/// two maps always agree on which slot a flight hashes to; only the
/// slot → group assignment varies. 64 slots over ≤16 groups keeps
/// per-group slot counts balanced while making migration quanta small.
pub const PARTITION_SLOTS: usize = 64;

/// Epoch-stamped assignment of flight-id hash slots to mirror groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMap {
    epoch: u64,
    slots: Vec<GroupId>,
}

impl PartitionMap {
    /// The unpartitioned map: every slot owned by group 0, epoch 0.
    /// This is what an un-configured cluster implicitly runs under.
    pub fn single() -> Self {
        Self { epoch: 0, slots: vec![0; PARTITION_SLOTS] }
    }

    /// Round-robin the slots across `groups` groups (epoch 1 so it fences
    /// out the implicit [`PartitionMap::single`]). `groups` is clamped to
    /// at least 1.
    pub fn uniform(groups: u16) -> Self {
        let groups = groups.max(1);
        Self { epoch: 1, slots: (0..PARTITION_SLOTS as u16).map(|s| s % groups).collect() }
    }

    /// The fencing epoch of this assignment.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of groups referenced by the map (highest assigned id + 1).
    pub fn groups(&self) -> usize {
        self.slots.iter().copied().max().unwrap_or(0) as usize + 1
    }

    /// The slot a flight hashes to. Map-independent: every map agrees.
    pub fn slot_of(flight: FlightId) -> usize {
        fib_slot(flight as u64, PARTITION_SLOTS)
    }

    /// The group that owns `flight` under this map.
    pub fn group_of(&self, flight: FlightId) -> GroupId {
        self.slots[Self::slot_of(flight)]
    }

    /// The group that owns `slot` under this map.
    pub fn group_of_slot(&self, slot: usize) -> GroupId {
        self.slots[slot]
    }

    /// Reassign `slot` to `group`, bumping the epoch. Returns the previous
    /// owner. This is the only mutation — maps otherwise travel by value.
    pub fn assign(&mut self, slot: usize, group: GroupId) -> GroupId {
        let prev = self.slots[slot];
        self.slots[slot] = group;
        self.epoch += 1;
        prev
    }

    /// Slots owned by `group` under this map.
    pub fn slots_of(&self, group: GroupId) -> impl Iterator<Item = usize> + '_ {
        self.slots.iter().enumerate().filter(move |(_, g)| **g == group).map(|(s, _)| s)
    }

    /// Raw slot table (one [`GroupId`] per slot), for wire encoding.
    pub fn slot_table(&self) -> &[GroupId] {
        &self.slots
    }

    /// Rebuild from wire parts. Slot tables of the wrong length are
    /// normalized (truncated / zero-extended) so a malformed frame cannot
    /// panic the routing path.
    pub fn from_parts(epoch: u64, mut slots: Vec<GroupId>) -> Self {
        slots.resize(PARTITION_SLOTS, 0);
        Self { epoch, slots }
    }

    /// Bytes this map occupies inside a control frame (epoch + slot table).
    pub fn wire_size(&self) -> usize {
        8 + 2 + self.slots.len() * 2
    }

    /// Epoch-fenced adoption: replace `current` with `incoming` only if it
    /// is strictly newer. Returns whether the map changed. This is the one
    /// rule every receiver applies, so stale frames from a lagging group
    /// can never roll back a migration.
    pub fn adopt(current: &mut Option<PartitionMap>, incoming: &PartitionMap) -> bool {
        match current {
            Some(cur) if incoming.epoch <= cur.epoch => false,
            _ => {
                *current = Some(incoming.clone());
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_covers_all_groups_evenly() {
        let pm = PartitionMap::uniform(4);
        assert_eq!(pm.groups(), 4);
        for g in 0..4u16 {
            assert_eq!(pm.slots_of(g).count(), PARTITION_SLOTS / 4);
        }
    }

    #[test]
    fn slot_of_matches_shard_style_hash() {
        for f in 0..500u32 {
            assert_eq!(
                PartitionMap::slot_of(f),
                crate::hashing::fib_slot(f as u64, PARTITION_SLOTS)
            );
        }
    }

    #[test]
    fn assign_bumps_epoch_and_returns_prev() {
        let mut pm = PartitionMap::uniform(2);
        let e0 = pm.epoch();
        let prev = pm.assign(3, 1);
        assert_eq!(prev, 3 % 2);
        assert_eq!(pm.epoch(), e0 + 1);
        assert_eq!(pm.group_of_slot(3), 1);
    }

    #[test]
    fn adopt_is_epoch_fenced() {
        let mut cur = None;
        let newer = PartitionMap::uniform(2);
        assert!(PartitionMap::adopt(&mut cur, &newer));
        // Same epoch: stale.
        assert!(!PartitionMap::adopt(&mut cur, &newer));
        // Older epoch: stale.
        let older = PartitionMap::single();
        assert!(!PartitionMap::adopt(&mut cur, &older));
        // Strictly newer: adopted.
        let mut bumped = newer.clone();
        bumped.assign(0, 1);
        assert!(PartitionMap::adopt(&mut cur, &bumped));
        assert_eq!(cur.unwrap().epoch(), bumped.epoch());
    }

    #[test]
    fn from_parts_normalizes_length() {
        let pm = PartitionMap::from_parts(7, vec![1, 2]);
        assert_eq!(pm.epoch(), 7);
        assert_eq!(pm.slot_table().len(), PARTITION_SLOTS);
        assert_eq!(pm.group_of_slot(0), 1);
        assert_eq!(pm.group_of_slot(63), 0);
    }

    #[test]
    fn single_is_all_group_zero() {
        let pm = PartitionMap::single();
        assert_eq!(pm.groups(), 1);
        for f in 0..100u32 {
            assert_eq!(pm.group_of(f), 0);
        }
    }
}
