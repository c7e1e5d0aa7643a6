//! Bounded in-process queues, kept only as a thin shim.
//!
//! No site path uses this module: the paper's auxiliary unit talks to the
//! rest of a site through the [`queue`](crate::queue) structures, and a
//! site's aux thread applies its runs itself. It remains so that the
//! pipeline benchmark's `core.ring_spsc_ns` and `core.ring_mpsc_ns` probes
//! still compile, and goes once ROADMAP item 1c drops those two probes.
//! Both flavours are a [`std::sync::mpsc::sync_channel`]; the probes
//! therefore time that channel.

use std::sync::mpsc::{self, SyncSender, TrySendError};

/// The producer half of an [`spsc`] queue.
pub struct SpscSender<T>(SyncSender<T>);

/// The producer half of an [`mpsc()`] queue; it pushes through `&self`.
pub struct MpscSender<T>(SyncSender<T>);

/// The consumer half of either flavour.
pub struct Receiver<T>(mpsc::Receiver<T>);

/// A bounded single-producer, single-consumer queue of `capacity` items.
pub fn spsc<T>(capacity: usize) -> (SpscSender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::sync_channel(capacity);
    (SpscSender(tx), Receiver(rx))
}

/// A bounded multi-producer, single-consumer queue of `capacity` items.
pub fn mpsc<T>(capacity: usize) -> (MpscSender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::sync_channel(capacity);
    (MpscSender(tx), Receiver(rx))
}

impl<T> SpscSender<T> {
    /// Push without blocking; a full queue hands the item back.
    pub fn try_send(&mut self, value: T) -> Result<(), TrySendError<T>> {
        self.0.try_send(value)
    }
}

impl<T> MpscSender<T> {
    /// Push without blocking; a full queue hands the item back.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        self.0.try_send(value)
    }
}

impl<T> Receiver<T> {
    /// Pop without blocking: `None` when the queue is empty (or every
    /// producer is gone).
    pub fn try_recv(&mut self) -> Option<T> {
        self.0.try_recv().ok()
    }
}
