//! Typed publish/subscribe event channels.
//!
//! ECho's core abstraction: a named channel to which any number of sources
//! publish and any number of sinks subscribe. Delivery is reliable and
//! per-subscriber FIFO (the checkpoint protocol of `mirror-core` depends on
//! exactly this contract). Channels are cheap: a publisher lends each
//! subscriber the message, which clones only what it keeps.
//!
//! Every subscription is a **sink**: a closure the publisher calls on its
//! own thread, under the channel's subscriber lock, once per published
//! run, in publish order ([`EventChannel::subscribe_with`]). A
//! [`Publisher::publish`] is a run of one; a [`Publisher::publish_all`]
//! hands every sink the whole run as one slice, so a consumer that can
//! take a run whole pays one delivery for it. A sink must never block —
//! every publisher of the channel waits on it — and must not touch its own
//! channel. [`EventChannel::subscribe`] is the sink that clones each
//! message of a run into an independent unbounded queue read through a
//! [`Subscriber`], so a slow reader never blocks the publisher
//! (back-pressure is the application's job — it is precisely the
//! monitored queue growth that drives adaptive mirroring). A site's inbox
//! is fed the same way, by a sink that sends into it, with no thread in
//! between.
//!
//! Unsubscribing is first-class: once [`Closer::close`] returns, the sink
//! is never called again (publishes hold the same lock), and a
//! [`Subscriber::recv`] returns the backlog, then `None`, as when every
//! publisher is gone. A forwarding thread is
//! `while let Some(m) = sub.recv()`, stopped by closing its input.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use crossbeam::channel::{self, Receiver};
use parking_lot::Mutex;

/// A subscription's delivery closure, called with each published run;
/// `false` means it did not take the whole run (its receiver is gone, or
/// it refuses).
type Sink<T> = Box<dyn FnMut(&[T]) -> bool + Send>;

/// Shared state of one channel.
struct Shared<T> {
    name: String,
    /// Open subscriptions by id; removing one drops its sink (and with a
    /// queue-backed one its sender, which ends its `recv` after the
    /// backlog).
    subs: Mutex<Vec<(u64, Sink<T>)>>,
    next_id: AtomicU64,
    /// Lock-free counter: read by monitoring threads while publishers are
    /// hot, so it must not contend on the subscriber lock.
    published: AtomicU64,
    /// Lock-free subscriber count, maintained by `subscribe` and
    /// `unsubscribe`. Read on apply hot paths (a mirror's per-update
    /// "anyone listening?" check) where taking the subscriber lock — or
    /// cloning the message first — would be a per-event tax paid even with
    /// no edge attached.
    sub_count: AtomicUsize,
}

/// The type-erased side of a channel a [`Closer`] reaches.
trait Unsubscribe: Send + Sync {
    fn unsubscribe(&self, id: u64);
}

impl<T: Send> Unsubscribe for Shared<T> {
    fn unsubscribe(&self, id: u64) {
        let mut subs = self.subs.lock();
        subs.retain(|(sub, _)| *sub != id);
        self.sub_count.store(subs.len(), Ordering::Release);
    }
}

/// A named, typed event channel.
pub struct EventChannel<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for EventChannel<T> {
    fn clone(&self) -> Self {
        EventChannel { shared: Arc::clone(&self.shared) }
    }
}

impl<T: Clone + Send + 'static> EventChannel<T> {
    /// Create a channel with a diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        EventChannel {
            shared: Arc::new(Shared {
                name: name.into(),
                subs: Mutex::new(Vec::new()),
                next_id: AtomicU64::new(0),
                published: AtomicU64::new(0),
                sub_count: AtomicUsize::new(0),
            }),
        }
    }

    /// The channel's name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// Create a publisher handle.
    pub fn publisher(&self) -> Publisher<T> {
        Publisher { shared: Arc::clone(&self.shared) }
    }

    /// Subscribe; returns a handle owning an independent FIFO of every
    /// message published after this call, until the subscription is
    /// closed.
    pub fn subscribe(&self) -> Subscriber<T> {
        let (tx, rx) = channel::unbounded();
        let closer =
            self.subscribe_with(move |run: &[T]| run.iter().all(|m| tx.send(m.clone()).is_ok()));
        Subscriber { rx, closer }
    }

    /// Subscribe a sink: `sink` is called with every run published after
    /// this call — one slice per [`publish`](Publisher::publish) or
    /// [`publish_all`](Publisher::publish_all) — on the publisher's
    /// thread, under the subscriber lock, in publish order, until the
    /// returned handle closes it. It returns whether it took the whole
    /// run. It must never block, and must not publish to, subscribe to or
    /// close a subscription of this channel.
    pub fn subscribe_with(&self, sink: impl FnMut(&[T]) -> bool + Send + 'static) -> Closer {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let mut subs = self.shared.subs.lock();
        subs.push((id, Box::new(sink)));
        self.shared.sub_count.store(subs.len(), Ordering::Release);
        drop(subs);
        let channel: Weak<dyn Unsubscribe> = Arc::downgrade(&self.shared) as _;
        Closer { channel, id }
    }

    /// Number of open subscriptions, sinks included.
    pub fn subscriber_count(&self) -> usize {
        self.shared.sub_count.load(Ordering::Acquire)
    }

    /// Total messages published on this channel.
    pub fn published(&self) -> u64 {
        self.shared.published.load(Ordering::Relaxed)
    }
}

/// Publishing handle for a channel.
pub struct Publisher<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Publisher<T> {
    fn clone(&self) -> Self {
        Publisher { shared: Arc::clone(&self.shared) }
    }
}

impl<T: Clone + Send + 'static> Publisher<T> {
    /// Publish one message to every open subscription: a run of one.
    /// Returns the number of subscriptions that took it.
    pub fn publish(&self, msg: T) -> usize {
        self.publish_all(std::slice::from_ref(&msg))
    }

    /// Publish a run of messages under one subscriber-lock acquisition,
    /// calling each sink once with the whole run. Every subscription sees
    /// the messages in order, after everything published before; an empty
    /// run takes no lock. Returns the number of subscriptions that took
    /// the whole run.
    pub fn publish_all(&self, msgs: &[T]) -> usize {
        if msgs.is_empty() {
            return 0;
        }
        let mut subs = self.shared.subs.lock();
        let delivered: usize = subs.iter_mut().map(|(_, sink)| usize::from(sink(msgs))).sum();
        drop(subs);
        self.shared.published.fetch_add(msgs.len() as u64, Ordering::Relaxed);
        delivered
    }

    /// `true` while at least one subscription (sinks included) is open —
    /// without taking the subscriber lock. This is the hot-path guard that
    /// lets a site skip the per-update clone + publish entirely when
    /// nothing listens (the common case for a mirror with no edge tier
    /// attached).
    pub fn has_subscribers(&self) -> bool {
        self.shared.sub_count.load(Ordering::Acquire) > 0
    }

    /// The channel's name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }
}

/// Closes one subscription ([`Subscriber::closer`],
/// [`EventChannel::subscribe_with`]). Carries no message type and does not
/// keep the channel alive: a channel whose last publisher drops still
/// disconnects its subscribers.
#[derive(Clone)]
pub struct Closer {
    channel: Weak<dyn Unsubscribe>,
    id: u64,
}

impl Closer {
    /// Close the subscription: once this returns, its sink is never
    /// called again — a publish racing the close finishes first — and a
    /// [`recv`](Subscriber::recv) returns what is already queued, then
    /// `None`. Idempotent, and a no-op once the channel is gone.
    pub fn close(&self) {
        if let Some(channel) = self.channel.upgrade() {
            channel.unsubscribe(self.id);
        }
    }
}

/// Subscription handle: an independent FIFO of published messages.
/// Dropping it closes the subscription.
pub struct Subscriber<T> {
    rx: Receiver<T>,
    closer: Closer,
}

impl<T> Subscriber<T> {
    /// A handle that closes this subscription from any thread — the way
    /// to stop a thread blocked in [`recv`](Self::recv).
    pub fn closer(&self) -> Closer {
        self.closer.clone()
    }

    /// Block until a message arrives; `None` once the subscription is
    /// closed (or every publisher is gone) and its backlog is drained.
    pub fn recv(&self) -> Option<T> {
        self.rx.recv().ok()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        self.rx.try_recv().ok()
    }

    /// Receive with a timeout; `None` on timeout, or at once when closed
    /// and drained.
    pub fn recv_timeout(&self, timeout: std::time::Duration) -> Option<T> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Messages currently queued.
    pub fn backlog(&self) -> usize {
        self.rx.len()
    }
}

impl<T> Drop for Subscriber<T> {
    fn drop(&mut self) {
        self.closer.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fanout_reaches_all_subscribers() {
        let ch: EventChannel<u32> = EventChannel::new("t");
        let s1 = ch.subscribe();
        let s2 = ch.subscribe();
        let p = ch.publisher();
        assert_eq!(p.publish(7), 2);
        assert_eq!(s1.recv(), Some(7));
        assert_eq!(s2.recv(), Some(7));
        assert_eq!(ch.published(), 1);
    }

    #[test]
    fn per_subscriber_fifo_order() {
        let ch: EventChannel<u32> = EventChannel::new("t");
        let s = ch.subscribe();
        let p = ch.publisher();
        for i in 0..100 {
            p.publish(i);
        }
        let got: Vec<u32> = std::iter::from_fn(|| s.try_recv()).collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn dropped_subscriber_is_pruned() {
        let ch: EventChannel<u32> = EventChannel::new("t");
        let s1 = ch.subscribe();
        let s2 = ch.subscribe();
        drop(s2);
        let p = ch.publisher();
        assert_eq!(p.publish(1), 1);
        assert_eq!(s1.recv(), Some(1));
    }

    #[test]
    fn late_subscriber_misses_earlier_messages() {
        let ch: EventChannel<u32> = EventChannel::new("t");
        let p = ch.publisher();
        p.publish(1);
        let s = ch.subscribe();
        p.publish(2);
        assert_eq!(s.try_recv(), Some(2));
        assert_eq!(s.try_recv(), None);
    }

    #[test]
    fn recv_timeout_times_out() {
        let ch: EventChannel<u32> = EventChannel::new("t");
        let s = ch.subscribe();
        let _p = ch.publisher();
        assert_eq!(s.recv_timeout(Duration::from_millis(10)), None);
    }

    #[test]
    fn cross_thread_delivery() {
        let ch: EventChannel<u64> = EventChannel::new("t");
        let s = ch.subscribe();
        let p = ch.publisher();
        let h = std::thread::spawn(move || {
            for i in 0..1000u64 {
                p.publish(i);
            }
        });
        let mut sum = 0;
        for _ in 0..1000 {
            sum += s.recv().unwrap();
        }
        h.join().unwrap();
        assert_eq!(sum, 999 * 1000 / 2);
    }

    #[test]
    fn concurrent_publishers_deliver_everything() {
        let ch: EventChannel<u64> = EventChannel::new("t");
        let s = ch.subscribe();
        let mut handles = Vec::new();
        for p in 0..4u64 {
            let publisher = ch.publisher();
            handles.push(std::thread::spawn(move || {
                for i in 0..250u64 {
                    publisher.publish(p * 1000 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut got = Vec::new();
        while let Some(v) = s.try_recv() {
            got.push(v);
        }
        assert_eq!(got.len(), 1000, "no message lost under concurrent publishers");
        // Per-publisher FIFO holds even when publishers interleave.
        for p in 0..4u64 {
            let mine: Vec<u64> = got.iter().copied().filter(|v| v / 1000 == p).collect();
            assert_eq!(mine, (0..250).map(|i| p * 1000 + i).collect::<Vec<_>>());
        }
        assert_eq!(ch.published(), 1000);
    }

    #[test]
    fn has_subscribers_tracks_attach_drop_and_close() {
        let ch: EventChannel<u8> = EventChannel::new("t");
        let p = ch.publisher();
        assert!(!p.has_subscribers(), "fresh channel has no subscribers");
        let s1 = ch.subscribe();
        let s2 = ch.subscribe();
        assert!(p.has_subscribers());
        assert_eq!(ch.subscriber_count(), 2);
        drop(s1);
        assert_eq!(ch.subscriber_count(), 1, "a dropped subscriber leaves at once");
        s2.closer().close();
        assert!(!p.has_subscribers(), "a closed subscription no longer counts");
        assert_eq!(ch.subscriber_count(), 0);
    }

    #[test]
    fn close_wakes_a_parked_recv_after_the_backlog() {
        let ch: EventChannel<u32> = EventChannel::new("t");
        let s = ch.subscribe();
        let closer = s.closer();
        let p = ch.publisher();
        p.publish(1);
        p.publish(2);
        let (seen_tx, seen_rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(v) = s.recv() {
                got.push(v);
                let _ = seen_tx.send(());
            }
            got
        });
        // Both queued messages are consumed: the reader is now in (or on
        // its way into) a `recv` with nothing queued, and the channel is
        // still open — only the close can end it.
        for _ in 0..2 {
            seen_rx.recv_timeout(Duration::from_secs(5)).expect("backlog delivered");
        }
        closer.close();
        assert_eq!(reader.join().unwrap(), vec![1, 2]);
        drop(p);
    }

    #[test]
    fn close_returns_the_backlog_then_none() {
        let ch: EventChannel<u32> = EventChannel::new("t");
        let s = ch.subscribe();
        let p = ch.publisher();
        for i in 0..3 {
            p.publish(i);
        }
        s.closer().close();
        assert_eq!((s.recv(), s.recv(), s.recv(), s.recv()), (Some(0), Some(1), Some(2), None));
    }

    #[test]
    fn nothing_is_delivered_after_close() {
        let ch: EventChannel<u32> = EventChannel::new("t");
        let s = ch.subscribe();
        let p = ch.publisher();
        s.closer().close();
        assert_eq!(p.publish(7), 0, "a closed subscription is not reached");
        assert_eq!(s.try_recv(), None);
        assert_eq!(s.recv_timeout(Duration::from_millis(5)), None);
        assert_eq!(ch.published(), 1);
    }

    #[test]
    fn a_second_close_does_nothing() {
        let ch: EventChannel<u32> = EventChannel::new("t");
        let closed = ch.subscribe();
        let open = ch.subscribe();
        let closer = closed.closer();
        closer.close();
        closer.clone().close();
        assert_eq!(ch.subscriber_count(), 1);
        assert_eq!(ch.publisher().publish(3), 1);
        assert_eq!(open.try_recv(), Some(3), "other subscriptions stay open");
        assert_eq!(closed.recv(), None);
    }

    #[test]
    fn a_closer_does_not_keep_the_channel_open() {
        let ch: EventChannel<u32> = EventChannel::new("t");
        let s = ch.subscribe();
        let closer = s.closer();
        let p = ch.publisher();
        drop(ch);
        p.publish(5);
        drop(p);
        // The last publisher is gone: the subscriber disconnects even
        // though an unused close handle is still alive.
        assert_eq!((s.recv(), s.recv()), (Some(5), None));
        closer.close();
    }

    #[test]
    fn publish_all_keeps_fifo_interleaved_with_publish() {
        let ch: EventChannel<u32> = EventChannel::new("t");
        let s1 = ch.subscribe();
        let s2 = ch.subscribe();
        let p = ch.publisher();
        p.publish(0);
        assert_eq!(p.publish_all(&[1, 2, 3]), 2);
        p.publish(4);
        assert_eq!(p.publish_all(&[5, 6]), 2);
        for s in [&s1, &s2] {
            let got: Vec<u32> = std::iter::from_fn(|| s.try_recv()).collect();
            assert_eq!(got, (0..7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn publish_all_skips_a_closed_subscription() {
        let ch: EventChannel<u32> = EventChannel::new("t");
        let open = ch.subscribe();
        let closed = ch.subscribe();
        closed.closer().close();
        assert_eq!(ch.publisher().publish_all(&[1, 2]), 1);
        assert_eq!((open.try_recv(), open.try_recv()), (Some(1), Some(2)));
        assert_eq!(closed.recv(), None, "nothing reaches a subscription closed before the run");
    }

    #[test]
    fn publish_all_counts_messages_not_calls() {
        let ch: EventChannel<u32> = EventChannel::new("t");
        let _s = ch.subscribe();
        ch.publisher().publish_all(&[1, 2, 3]);
        assert_eq!(ch.published(), 3);
    }

    #[test]
    fn publish_all_of_an_empty_run_does_nothing() {
        let ch: EventChannel<u32> = EventChannel::new("t");
        let s = ch.subscribe();
        assert_eq!(ch.publisher().publish_all(&[]), 0);
        assert_eq!(ch.published(), 0);
        assert_eq!(s.try_recv(), None);
    }

    #[test]
    fn sink_sees_publish_and_publish_all_in_order() {
        let ch: EventChannel<u32> = EventChannel::new("t");
        let runs = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&runs);
        let _closer = ch.subscribe_with(move |run: &[u32]| {
            seen.lock().push(run.to_vec());
            true
        });
        let s = ch.subscribe();
        let p = ch.publisher();
        assert_eq!(p.publish(0), 2);
        assert_eq!(p.publish_all(&[1, 2, 3]), 2);
        p.publish(4);
        p.publish_all(&[5, 6]);
        // One call per publish: a `publish` is a run of one, a
        // `publish_all` one call with the whole run.
        assert_eq!(*runs.lock(), vec![vec![0], vec![1, 2, 3], vec![4], vec![5, 6]]);
        let got: Vec<u32> = std::iter::from_fn(|| s.try_recv()).collect();
        assert_eq!(got, (0..7).collect::<Vec<_>>(), "a Subscriber sees one message at a time");
    }

    #[test]
    fn a_closed_sink_is_never_called_again_despite_a_racing_publisher() {
        use std::sync::atomic::AtomicBool;
        let ch: EventChannel<u64> = EventChannel::new("t");
        let calls = Arc::new(AtomicU64::new(0));
        let counted = Arc::clone(&calls);
        let closer = ch.subscribe_with(move |_| {
            counted.fetch_add(1, Ordering::SeqCst);
            true
        });
        let done = Arc::new(AtomicBool::new(false));
        let publisher = {
            let (p, done) = (ch.publisher(), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut i = 0;
                while !done.load(Ordering::SeqCst) {
                    // Single publishes and runs alternate.
                    p.publish(i);
                    p.publish_all(&[i, i + 1, i + 2]);
                    i += 3;
                }
            })
        };
        // The sink is being called from the publisher's thread.
        while calls.load(Ordering::SeqCst) < 1_000 {
            std::thread::yield_now();
        }
        closer.close();
        let at_close = calls.load(Ordering::SeqCst);
        // Let the publisher run well past the close before looking again.
        let published = ch.published();
        while ch.published() < published + 10_000 {
            std::thread::yield_now();
        }
        done.store(true, Ordering::SeqCst);
        publisher.join().unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), at_close, "a sink ran after its close returned");
        assert_eq!(ch.subscriber_count(), 0);
    }

    #[test]
    fn a_refusing_sink_is_not_counted_as_delivered() {
        let ch: EventChannel<u32> = EventChannel::new("t");
        let _taker = ch.subscribe_with(|_| true);
        let _refuser = ch.subscribe_with(|_| false);
        let p = ch.publisher();
        assert_eq!(p.publish(1), 1);
        assert_eq!(p.publish_all(&[2, 3]), 1);
        assert_eq!(ch.published(), 3, "a refused message still counts as published");
    }

    #[test]
    fn sinks_count_as_subscribers() {
        let ch: EventChannel<u8> = EventChannel::new("t");
        let p = ch.publisher();
        let sink = ch.subscribe_with(|_| true);
        assert!(p.has_subscribers(), "a sink alone is a subscriber");
        let queue = ch.subscribe();
        assert_eq!(ch.subscriber_count(), 2);
        sink.close();
        assert_eq!(ch.subscriber_count(), 1);
        drop(queue);
        assert!(!p.has_subscribers());
    }
}
