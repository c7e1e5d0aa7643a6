//! Vector timestamps.
//!
//! The paper (§3.3) timestamps every event as it enters the primary site
//! with a *vector* timestamp in which each component corresponds to one
//! incoming stream; event order within a stream is captured by the stream's
//! own sequence numbers. Checkpointing agrees on a committable timestamp by
//! taking componentwise minima across sites, and backup queues are pruned of
//! every event whose stamp is dominated by the committed stamp.
//!
//! A stamp is part of its event. The central stamps every event at ingress
//! with a copy of its clock, so a stamp kept in a heap buffer of its own
//! would be a second allocation per event, made on the central's aux thread
//! and freed on whichever site drops the event last, and every merge, meet
//! and dominance test would follow a second pointer. A stamp of up to
//! [`INLINE_WIDTH`] components — the airline workload's FAA and Delta
//! streams — is therefore stored inline and copied with the event. A wider
//! stamp spills to the heap, so [`VectorTimestamp::advance`] still widens
//! to any stream id.

/// Stream-local sequence number. `0` means "no event from this stream yet";
/// real events are numbered from 1.
pub type Seq = u64;

/// Result of comparing two vector timestamps under the componentwise
/// partial order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StampOrdering {
    /// Componentwise equal.
    Equal,
    /// Strictly dominated (≤ everywhere, < somewhere).
    Before,
    /// Strictly dominating.
    After,
    /// Incomparable.
    Concurrent,
}

/// Components a stamp stores inline, without a heap allocation: one per
/// stream of the airline workload (FAA fixes and Delta status).
pub const INLINE_WIDTH: usize = 2;

/// A vector timestamp: one [`Seq`] per incoming stream.
///
/// Timestamps of different widths are compared by implicitly zero-extending
/// the shorter one — a stream that has produced nothing is at sequence 0.
/// Equality and hashing are those of the [`components`](Self::components)
/// slice: `⟨1⟩` and `⟨1,0⟩` compare `Equal` but are not `==`.
#[derive(Clone)]
pub struct VectorTimestamp(Components);

/// Storage of a stamp's components.
#[derive(Clone)]
enum Components {
    /// At most [`INLINE_WIDTH`] components; the slots past `len` are zero.
    Inline { len: u8, c: [Seq; INLINE_WIDTH] },
    /// More than [`INLINE_WIDTH`] components.
    Spilled(Vec<Seq>),
}

impl VectorTimestamp {
    /// The empty (zero-width) timestamp; dominated by or equal to every
    /// other timestamp.
    pub fn empty() -> Self {
        VectorTimestamp(Components::Inline { len: 0, c: [0; INLINE_WIDTH] })
    }

    /// An all-zero timestamp with `streams` components.
    pub fn new(streams: usize) -> Self {
        std::iter::repeat_n(0, streams).collect()
    }

    /// Build directly from components.
    pub fn from_components(c: Vec<Seq>) -> Self {
        if c.len() <= INLINE_WIDTH {
            c.into_iter().collect()
        } else {
            VectorTimestamp(Components::Spilled(c))
        }
    }

    /// Number of components.
    #[inline]
    pub fn width(&self) -> usize {
        self.components().len()
    }

    /// True if no component has advanced past zero.
    pub fn is_zero(&self) -> bool {
        self.components().iter().all(|&s| s == 0)
    }

    /// Component for `stream`, zero-extended.
    #[inline]
    pub fn get(&self, stream: usize) -> Seq {
        self.components().get(stream).copied().unwrap_or(0)
    }

    /// Record that `stream` has reached sequence `seq`, widening if needed.
    /// Components only move forward; a stale smaller `seq` is ignored.
    #[inline]
    pub fn advance(&mut self, stream: usize, seq: Seq) {
        let c = &mut self.widen(stream + 1)[stream];
        *c = (*c).max(seq);
    }

    /// Componentwise maximum (join of the lattice).
    #[inline]
    pub fn merge(&mut self, other: &VectorTimestamp) {
        let theirs = other.components();
        for (c, &s) in self.widen(theirs.len()).iter_mut().zip(theirs) {
            *c = (*c).max(s);
        }
    }

    /// Componentwise minimum (meet of the lattice). The result's width is
    /// the *maximum* of the two widths; missing components count as 0.
    pub fn meet(&self, other: &VectorTimestamp) -> VectorTimestamp {
        let w = self.width().max(other.width());
        (0..w).map(|i| self.get(i).min(other.get(i))).collect()
    }

    /// Componentwise maximum, by value.
    pub fn join(&self, other: &VectorTimestamp) -> VectorTimestamp {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// Compare under the componentwise partial order (with zero-extension).
    pub fn compare(&self, other: &VectorTimestamp) -> StampOrdering {
        let w = self.width().max(other.width());
        let (mut some_lt, mut some_gt) = (false, false);
        for i in 0..w {
            let (a, b) = (self.get(i), other.get(i));
            if a < b {
                some_lt = true;
            } else if a > b {
                some_gt = true;
            }
        }
        match (some_lt, some_gt) {
            (false, false) => StampOrdering::Equal,
            (true, false) => StampOrdering::Before,
            (false, true) => StampOrdering::After,
            (true, true) => StampOrdering::Concurrent,
        }
    }

    /// `self ≤ other` componentwise — i.e. an event stamped `self` is
    /// covered by a checkpoint at `other`. Stops at the first component
    /// that exceeds `other`'s.
    #[inline]
    pub fn dominated_by(&self, other: &VectorTimestamp) -> bool {
        self.components().iter().enumerate().all(|(i, &s)| s <= other.get(i))
    }

    /// Raw components (zero-extended access via [`get`](Self::get) is
    /// usually preferable).
    #[inline]
    pub fn components(&self) -> &[Seq] {
        match &self.0 {
            Components::Inline { len, c } => &c[..*len as usize],
            Components::Spilled(v) => v,
        }
    }

    /// Bytes this stamp occupies on the wire: each component is a `u64`.
    /// (The component count is carried in the event header.)
    pub fn wire_size(&self) -> usize {
        self.width() * 8
    }

    /// The components, widened with zeros to at least `w`; an inline stamp
    /// spills once `w` exceeds [`INLINE_WIDTH`].
    #[inline]
    fn widen(&mut self, w: usize) -> &mut [Seq] {
        match &mut self.0 {
            Components::Inline { len, .. } if w <= INLINE_WIDTH => {
                *len = (*len).max(w as u8);
            }
            Components::Inline { len, c } => {
                let mut v = Vec::with_capacity(w);
                v.extend_from_slice(&c[..*len as usize]);
                v.resize(w, 0);
                self.0 = Components::Spilled(v);
            }
            Components::Spilled(v) if w > v.len() => v.resize(w, 0),
            Components::Spilled(_) => {}
        }
        match &mut self.0 {
            Components::Inline { len, c } => &mut c[..*len as usize],
            Components::Spilled(v) => v,
        }
    }
}

impl Default for VectorTimestamp {
    fn default() -> Self {
        Self::empty()
    }
}

/// Collects components in order; up to [`INLINE_WIDTH`] of them are stored
/// inline with no allocation. The wire decoder fills stamps this way.
impl FromIterator<Seq> for VectorTimestamp {
    fn from_iter<I: IntoIterator<Item = Seq>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut c = [0; INLINE_WIDTH];
        for len in 0..INLINE_WIDTH {
            match iter.next() {
                Some(s) => c[len] = s,
                None => return VectorTimestamp(Components::Inline { len: len as u8, c }),
            }
        }
        let Some(next) = iter.next() else {
            return VectorTimestamp(Components::Inline { len: INLINE_WIDTH as u8, c });
        };
        let mut v = Vec::with_capacity(INLINE_WIDTH + 1 + iter.size_hint().0);
        v.extend_from_slice(&c);
        v.push(next);
        v.extend(iter);
        VectorTimestamp(Components::Spilled(v))
    }
}

impl PartialEq for VectorTimestamp {
    fn eq(&self, other: &Self) -> bool {
        self.components() == other.components()
    }
}

impl Eq for VectorTimestamp {}

impl std::hash::Hash for VectorTimestamp {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.components().hash(state);
    }
}

impl std::fmt::Debug for VectorTimestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("VectorTimestamp").field(&self.components()).finish()
    }
}

impl std::fmt::Display for VectorTimestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨")?;
        for (i, s) in self.components().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vt(c: &[Seq]) -> VectorTimestamp {
        VectorTimestamp::from_components(c.to_vec())
    }

    #[test]
    fn empty_is_dominated_by_everything() {
        let e = VectorTimestamp::empty();
        assert!(e.dominated_by(&vt(&[0, 0])));
        assert!(e.dominated_by(&vt(&[3, 1])));
        assert_eq!(e.compare(&vt(&[0])), StampOrdering::Equal);
    }

    #[test]
    fn advance_only_moves_forward() {
        let mut t = VectorTimestamp::new(2);
        t.advance(0, 5);
        assert_eq!(t.get(0), 5);
        t.advance(0, 3); // stale
        assert_eq!(t.get(0), 5);
        t.advance(3, 1); // widens
        assert_eq!(t.width(), 4);
        assert_eq!(t.get(3), 1);
    }

    #[test]
    fn compare_covers_all_cases() {
        assert_eq!(vt(&[1, 2]).compare(&vt(&[1, 2])), StampOrdering::Equal);
        assert_eq!(vt(&[1, 1]).compare(&vt(&[1, 2])), StampOrdering::Before);
        assert_eq!(vt(&[2, 2]).compare(&vt(&[1, 2])), StampOrdering::After);
        assert_eq!(vt(&[2, 1]).compare(&vt(&[1, 2])), StampOrdering::Concurrent);
    }

    #[test]
    fn compare_zero_extends() {
        assert_eq!(vt(&[1]).compare(&vt(&[1, 0])), StampOrdering::Equal);
        assert_eq!(vt(&[1]).compare(&vt(&[1, 3])), StampOrdering::Before);
        assert_eq!(vt(&[1, 4]).compare(&vt(&[1])), StampOrdering::After);
    }

    #[test]
    fn meet_and_join() {
        let a = vt(&[3, 1]);
        let b = vt(&[2, 5, 7]);
        assert_eq!(a.meet(&b), vt(&[2, 1, 0]));
        assert_eq!(a.join(&b), vt(&[3, 5, 7]));
    }

    #[test]
    fn merge_widens_and_maxes() {
        let mut a = vt(&[3]);
        a.merge(&vt(&[1, 9]));
        assert_eq!(a, vt(&[3, 9]));
    }

    #[test]
    fn display_formats_components() {
        assert_eq!(vt(&[1, 2]).to_string(), "⟨1,2⟩");
    }

    /// The representation before stamps were stored inline, kept as the
    /// reference the inline/spilled one must agree with.
    mod reference {
        use super::{Seq, StampOrdering};

        fn get(a: &[Seq], i: usize) -> Seq {
            a.get(i).copied().unwrap_or(0)
        }

        pub fn merge(a: &mut Vec<Seq>, b: &[Seq]) {
            if b.len() > a.len() {
                a.resize(b.len(), 0);
            }
            for (i, &s) in b.iter().enumerate() {
                a[i] = a[i].max(s);
            }
        }

        pub fn meet(a: &[Seq], b: &[Seq]) -> Vec<Seq> {
            (0..a.len().max(b.len())).map(|i| get(a, i).min(get(b, i))).collect()
        }

        pub fn advance(a: &mut Vec<Seq>, stream: usize, seq: Seq) {
            if stream >= a.len() {
                a.resize(stream + 1, 0);
            }
            a[stream] = a[stream].max(seq);
        }

        pub fn compare(a: &[Seq], b: &[Seq]) -> StampOrdering {
            let w = a.len().max(b.len());
            let lt = (0..w).any(|i| get(a, i) < get(b, i));
            let gt = (0..w).any(|i| get(a, i) > get(b, i));
            match (lt, gt) {
                (false, false) => StampOrdering::Equal,
                (true, false) => StampOrdering::Before,
                (false, true) => StampOrdering::After,
                (true, true) => StampOrdering::Concurrent,
            }
        }
    }

    /// Every stamp of width 0–4 with components 0–3 (341 of them).
    fn all_small_stamps() -> Vec<Vec<Seq>> {
        let mut out = vec![Vec::new()];
        let mut frontier = vec![Vec::new()];
        for _ in 0..4 {
            frontier = frontier
                .iter()
                .flat_map(|p: &Vec<Seq>| {
                    (0..4).map(move |s| p.iter().copied().chain([s]).collect::<Vec<Seq>>())
                })
                .collect();
            out.extend(frontier.iter().cloned());
        }
        out
    }

    fn hash_of(h: &impl std::hash::Hash) -> u64 {
        use std::hash::{BuildHasher, BuildHasherDefault};
        BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default().hash_one(h)
    }

    #[test]
    fn agrees_with_the_vec_representation_on_every_small_pair() {
        let all = all_small_stamps();
        assert_eq!(all.len(), 341);
        for a in &all {
            let ta = vt(a);
            assert_eq!(ta.components(), &a[..]);
            assert_eq!(hash_of(&ta), hash_of(a), "{a:?}");
            for stream in 0..5 {
                for seq in 0..4 {
                    let (mut t, mut r) = (ta.clone(), a.clone());
                    t.advance(stream, seq);
                    reference::advance(&mut r, stream, seq);
                    assert_eq!(t.components(), &r[..], "{a:?}.advance({stream}, {seq})");
                }
            }
            for b in &all {
                let tb = vt(b);
                let why = || format!("{a:?} vs {b:?}");
                assert_eq!(ta.compare(&tb), reference::compare(a, b), "{}", why());
                let dominated = matches!(
                    reference::compare(a, b),
                    StampOrdering::Equal | StampOrdering::Before
                );
                assert_eq!(ta.dominated_by(&tb), dominated, "{}", why());
                assert_eq!(ta.meet(&tb).components(), reference::meet(a, b), "{}", why());
                let mut joined = a.clone();
                reference::merge(&mut joined, b);
                assert_eq!(ta.join(&tb).components(), &joined[..], "{}", why());
                let mut merged = ta.clone();
                merged.merge(&tb);
                assert_eq!(merged.components(), &joined[..], "{}", why());
                assert_eq!(ta == tb, a == b, "{}", why());
                assert_eq!(hash_of(&ta) == hash_of(&tb), a == b, "{}", why());
            }
        }
    }

    #[test]
    fn constructors_agree_across_the_inline_boundary() {
        for w in 0..=INLINE_WIDTH + 2 {
            let c: Vec<Seq> = (1..=w as Seq).collect();
            let collected: VectorTimestamp = c.iter().copied().collect();
            assert_eq!(collected, vt(&c));
            assert_eq!(VectorTimestamp::new(w).components(), vec![0; w]);
            assert_eq!(format!("{:?}", vt(&c)), format!("VectorTimestamp({c:?})"));
        }
        assert_eq!(VectorTimestamp::default(), VectorTimestamp::empty());
    }
}
