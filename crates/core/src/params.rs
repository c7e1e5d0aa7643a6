//! Mirroring parameters.
//!
//! The paper's `init()`/`set_params()` calls control (§3.2.1): (1) whether
//! events are mirrored independently or coalesced, (2) the maximum number of
//! events to coalesce, (3–4) per-type overwriting and its maximum sequence
//! length (kept in the [`crate::rules::RuleSet`]), (5) the checkpointing
//! frequency, and (6) adaptation parameters (see [`crate::adapt`]).
//!
//! Parameter sets are `Clone` so the adaptation controller can
//! ship a full replacement parameter set to every mirror piggybacked on
//! checkpoint control messages, guaranteeing that "all mirrors are adapted
//! in the same fashion".
//!
//! These knobs decide *what* gets mirrored. The complementary transport
//! knobs — how the surviving frames ride the wire (batch size, byte bound,
//! flush linger) — live in `mirror_runtime::bridge::BatchPolicy`, which is
//! fixed per bridge rather than adapted at runtime.

/// Identifies a tunable parameter for `set_adapt(p_id, p)`-style percentage
/// adjustments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamId {
    /// Maximum number of events coalesced into one mirror event.
    CoalesceMax,
    /// Checkpoint frequency, expressed as events-between-checkpoints
    /// (larger = less frequent checkpointing).
    CheckpointEvery,
    /// Maximum overwrite sequence length applied to position events.
    OverwriteMax,
}

/// The dynamic parameter set of the mirroring process.
#[derive(Debug, Clone, PartialEq)]
pub struct MirrorParams {
    /// Coalesce runs of ready-queue events before mirroring (vs. mirroring
    /// each event independently).
    pub coalesce: bool,
    /// Maximum number of events folded into one coalesced mirror event.
    pub coalesce_max: u32,
    /// Invoke the checkpointing procedure once per this many *sent* events
    /// (the paper's default is 50).
    pub checkpoint_every: u32,
    /// Maximum overwrite sequence length for position events; `0`/`1`
    /// disables overwriting. Mirrors `set_overwrite` for the FAA stream and
    /// is the knob the adaptation policy turns.
    pub overwrite_max: u32,
    /// Generation counter: bumped on every change so sites can discard
    /// stale parameter updates arriving out of order.
    pub generation: u64,
}

impl Default for MirrorParams {
    fn default() -> Self {
        // Paper defaults: independent mirroring of every event, checkpoint
        // once per 50 processed events, no overwriting.
        MirrorParams {
            coalesce: false,
            coalesce_max: 1,
            checkpoint_every: 50,
            overwrite_max: 0,
            generation: 0,
        }
    }
}

impl MirrorParams {
    /// The paper's default configuration.
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// The first adaptive profile of §4.3: "coalesces up to 10 events and
    /// then produces one mirror event, thus overwriting up to 10 flight
    /// position events. Checkpointing is performed for every 50 events."
    pub fn profile_normal() -> Self {
        MirrorParams {
            coalesce: true,
            coalesce_max: 10,
            checkpoint_every: 50,
            overwrite_max: 10,
            generation: 0,
        }
    }

    /// The second adaptive profile of §4.3: "overwrites up to 20 flight
    /// position events and performs checkpointing every 100 events."
    pub fn profile_degraded() -> Self {
        MirrorParams {
            coalesce: true,
            coalesce_max: 20,
            checkpoint_every: 100,
            overwrite_max: 20,
            generation: 0,
        }
    }

    /// Apply a `set_adapt(p_id, p)`-style relative adjustment: modify
    /// parameter `p_id` by `percent` percent (negative shrinks). Values are
    /// clamped to sane minima (coalesce/overwrite ≥ 1, checkpoint ≥ 1).
    pub fn adjust_percent(&mut self, p_id: ParamId, percent: i32) {
        fn scaled(v: u32, percent: i32) -> u32 {
            let delta = (v as i64 * percent as i64) / 100;
            (v as i64 + delta).max(1) as u32
        }
        match p_id {
            ParamId::CoalesceMax => {
                self.coalesce_max = scaled(self.coalesce_max, percent);
                self.coalesce = self.coalesce_max > 1;
            }
            ParamId::CheckpointEvery => {
                self.checkpoint_every = scaled(self.checkpoint_every, percent)
            }
            ParamId::OverwriteMax => self.overwrite_max = scaled(self.overwrite_max, percent),
        }
        self.generation += 1;
    }

    /// Bump the generation (callers mutating fields directly should do this
    /// so stale updates can be detected).
    pub fn touch(&mut self) {
        self.generation += 1;
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = MirrorParams::default();
        assert!(!p.coalesce);
        assert_eq!(p.checkpoint_every, 50);
        assert_eq!(p.overwrite_max, 0);
    }

    #[test]
    fn profiles_match_section_4_3() {
        let a = MirrorParams::profile_normal();
        assert_eq!((a.coalesce_max, a.checkpoint_every), (10, 50));
        let b = MirrorParams::profile_degraded();
        assert_eq!((b.coalesce_max, b.checkpoint_every), (20, 100));
        assert_eq!(b.overwrite_max, 20);
    }

    #[test]
    fn adjust_percent_scales_and_bumps_generation() {
        let mut p = MirrorParams::default();
        p.adjust_percent(ParamId::CheckpointEvery, -50);
        assert_eq!(p.checkpoint_every, 25);
        assert_eq!(p.generation, 1);
        p.adjust_percent(ParamId::CheckpointEvery, 100);
        assert_eq!(p.checkpoint_every, 50);
        assert_eq!(p.generation, 2);
    }

    #[test]
    fn adjust_percent_clamps_to_one() {
        let mut p = MirrorParams::default();
        p.coalesce_max = 2;
        p.adjust_percent(ParamId::CoalesceMax, -99);
        assert_eq!(p.coalesce_max, 1);
        assert!(!p.coalesce, "coalesce_max of 1 disables coalescing");
    }

    #[test]
    fn enabling_coalesce_via_adjust() {
        let mut p = MirrorParams::default();
        p.coalesce_max = 5;
        p.adjust_percent(ParamId::CoalesceMax, 100);
        assert_eq!(p.coalesce_max, 10);
        assert!(p.coalesce);
    }
}
