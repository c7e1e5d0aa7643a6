//! Vector timestamps.
//!
//! The paper (§3.3) timestamps every event as it enters the primary site
//! with a *vector* timestamp in which each component corresponds to one
//! incoming stream; event order within a stream is captured by the stream's
//! own sequence numbers. Checkpointing agrees on a committable timestamp by
//! taking componentwise minima across sites, and backup queues are pruned of
//! every event whose stamp is dominated by the committed stamp.

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

/// A vector timestamp: one [`Seq`] per incoming stream.
///
/// Timestamps of different widths are compared by implicitly zero-extending
/// the shorter one — a stream that has produced nothing is at sequence 0.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct VectorTimestamp(Vec<Seq>);

impl VectorTimestamp {
    /// The empty (zero-width) timestamp; dominated by or equal to every
    /// other timestamp.
    pub fn empty() -> Self {
        VectorTimestamp(Vec::new())
    }

    /// An all-zero timestamp with `streams` components.
    pub fn new(streams: usize) -> Self {
        VectorTimestamp(vec![0; streams])
    }

    /// Build directly from components.
    pub fn from_components(c: Vec<Seq>) -> Self {
        VectorTimestamp(c)
    }

    /// Number of components.
    pub fn width(&self) -> usize {
        self.0.len()
    }

    /// True if no component has advanced past zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&s| s == 0)
    }

    /// Component for `stream`, zero-extended.
    pub fn get(&self, stream: usize) -> Seq {
        self.0.get(stream).copied().unwrap_or(0)
    }

    /// Record that `stream` has reached sequence `seq`, widening if needed.
    /// Components only move forward; a stale smaller `seq` is ignored.
    pub fn advance(&mut self, stream: usize, seq: Seq) {
        if stream >= self.0.len() {
            self.0.resize(stream + 1, 0);
        }
        if seq > self.0[stream] {
            self.0[stream] = seq;
        }
    }

    /// Componentwise maximum (join of the lattice).
    pub fn merge(&mut self, other: &VectorTimestamp) {
        if other.0.len() > self.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &s) in other.0.iter().enumerate() {
            if s > self.0[i] {
                self.0[i] = s;
            }
        }
    }

    /// Componentwise minimum (meet of the lattice). The result's width is
    /// the *maximum* of the two widths; missing components count as 0.
    pub fn meet(&self, other: &VectorTimestamp) -> VectorTimestamp {
        let w = self.0.len().max(other.0.len());
        let mut out = Vec::with_capacity(w);
        for i in 0..w {
            out.push(self.get(i).min(other.get(i)));
        }
        VectorTimestamp(out)
    }

    /// Componentwise maximum, by value.
    pub fn join(&self, other: &VectorTimestamp) -> VectorTimestamp {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// Compare under the componentwise partial order (with zero-extension).
    pub fn compare(&self, other: &VectorTimestamp) -> StampOrdering {
        let w = self.0.len().max(other.0.len());
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
    /// covered by a checkpoint at `other`.
    pub fn dominated_by(&self, other: &VectorTimestamp) -> bool {
        matches!(self.compare(other), StampOrdering::Equal | StampOrdering::Before)
    }

    /// Raw components (zero-extended access via [`get`](Self::get) is
    /// usually preferable).
    pub fn components(&self) -> &[Seq] {
        &self.0
    }

    /// Bytes this stamp occupies on the wire: each component is a `u64`.
    /// (The component count is carried in the event header.)
    pub fn wire_size(&self) -> usize {
        self.0.len() * 8
    }
}

impl std::fmt::Display for VectorTimestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨")?;
        for (i, s) in self.0.iter().enumerate() {
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
}
