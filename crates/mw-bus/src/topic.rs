use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::queue::{BoundedQueue, OverflowPolicy, Pushed};

/// The sender half of one subscription.
#[derive(Debug)]
enum SubscriberTx<T> {
    /// Unbounded channel plus a flag the receiver sets on drop, so
    /// liveness is observable without publishing a message.
    Channel(Sender<T>, Arc<AtomicBool>),
    Bounded(Arc<BoundedQueue<T>>),
    /// A callback run on the publishing thread under the topic lock, so
    /// it sees messages in publish order, plus a flag its owner sets to
    /// unsubscribe it (observable without a publish, like `Channel`'s).
    Sink(Sink<T>, Arc<AtomicBool>),
}

/// The boxed callback of a [`SubscriberTx::Sink`].
struct Sink<T>(Box<dyn FnMut(&T) + Send>);

impl<T> std::fmt::Debug for Sink<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Sink")
    }
}

/// The publisher end of a pub/sub topic.
///
/// Cloning produces another handle to the same topic. Messages are cloned
/// per subscriber; subscribers that were dropped are pruned lazily.
#[derive(Debug, Clone)]
pub struct Publisher<T> {
    topic: Arc<Topic<T>>,
}

/// The state every [`Publisher`] handle of one topic shares; dropped with
/// the last of them.
#[derive(Debug)]
struct Topic<T> {
    subscribers: Mutex<Vec<SubscriberTx<T>>>,
}

impl<T> Drop for Topic<T> {
    /// Ends blocked bounded receives. (Unbounded ones end when their
    /// channel's sender is dropped with the list.)
    fn drop(&mut self) {
        for tx in self.subscribers.get_mut().iter() {
            if let SubscriberTx::Bounded(queue) = tx {
                queue.close();
            }
        }
    }
}

impl<T: Clone> Publisher<T> {
    /// Creates a topic with no subscribers.
    #[must_use]
    pub fn new() -> Self {
        Publisher {
            topic: Arc::new(Topic {
                subscribers: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Subscribes to the topic; every message published afterwards is
    /// delivered to the returned subscription. The queue is unbounded —
    /// a subscriber that never drains it grows it without limit; use
    /// [`Publisher::subscribe_bounded`] where that matters.
    #[must_use]
    pub fn subscribe(&self) -> Subscription<T> {
        let (tx, rx) = unbounded();
        let closed = Arc::new(AtomicBool::new(false));
        self.topic
            .subscribers
            .lock()
            .push(SubscriberTx::Channel(tx, Arc::clone(&closed)));
        Subscription {
            rx: SubscriptionRx::Channel(rx, closed),
        }
    }

    /// Subscribes with a queue bounded at `capacity` messages. When the
    /// subscriber falls behind, `policy` decides which message is lost;
    /// every loss increments the subscription's
    /// [lag counter](Subscription::lag_count).
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    #[must_use]
    pub fn subscribe_bounded(&self, capacity: usize, policy: OverflowPolicy) -> Subscription<T> {
        assert!(capacity > 0, "bounded subscription needs capacity >= 1");
        let queue = Arc::new(BoundedQueue::new(
            VecDeque::with_capacity(capacity),
            capacity,
            policy,
        ));
        self.topic
            .subscribers
            .lock()
            .push(SubscriberTx::Bounded(Arc::clone(&queue)));
        Subscription {
            rx: SubscriptionRx::Bounded(queue),
        }
    }

    /// Subscribes `sink`, which the publishing thread calls with every
    /// later message while it holds the topic lock — in publish order,
    /// with no queue and no thread of its own. Each call counts as one
    /// delivery. Setting `closed` unsubscribes the sink: it is not called
    /// again and is dropped at the next publish or
    /// [`Publisher::live_subscriber_count`].
    pub(crate) fn subscribe_sink(
        &self,
        closed: Arc<AtomicBool>,
        sink: impl FnMut(&T) + Send + 'static,
    ) {
        self.topic
            .subscribers
            .lock()
            .push(SubscriberTx::Sink(Sink(Box::new(sink)), closed));
    }

    /// Publishes a message to all current subscribers. Returns the number
    /// of subscribers the message was enqueued to (a bounded subscriber
    /// whose overflow policy discarded this message is not counted, but
    /// stays subscribed).
    pub fn publish(&self, message: T) -> usize {
        let mut subs = self.topic.subscribers.lock();
        let mut delivered = 0;
        subs.retain_mut(|tx| match tx {
            SubscriberTx::Channel(tx, closed) => {
                if !closed.load(Ordering::Acquire) && tx.send(message.clone()).is_ok() {
                    delivered += 1;
                    true
                } else {
                    false
                }
            }
            SubscriberTx::Bounded(queue) => match queue.push(message.clone()) {
                Pushed::Queued | Pushed::EvictedOldest => {
                    delivered += 1;
                    true
                }
                Pushed::Discarded => true,
                Pushed::Closed => false,
            },
            SubscriberTx::Sink(sink, closed) => {
                if closed.load(Ordering::Acquire) {
                    return false;
                }
                (sink.0)(&message);
                delivered += 1;
                true
            }
        });
        delivered
    }

    /// Number of live subscribers (after pruning on the last publish).
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        self.topic.subscribers.lock().len()
    }

    /// Number of subscribers that have not been dropped, pruning the
    /// dropped ones. Unlike [`Publisher::subscriber_count`] this is
    /// accurate without an intervening publish, which lets a forwarder
    /// notice on an *idle* topic that nobody is listening any more.
    #[must_use]
    pub fn live_subscriber_count(&self) -> usize {
        let mut subs = self.topic.subscribers.lock();
        subs.retain(|tx| match tx {
            SubscriberTx::Channel(_, closed) => !closed.load(Ordering::Acquire),
            SubscriberTx::Bounded(queue) => !queue.is_closed(),
            SubscriberTx::Sink(_, closed) => !closed.load(Ordering::Acquire),
        });
        subs.len()
    }
}

impl<T: Clone> Default for Publisher<T> {
    fn default() -> Self {
        Publisher::new()
    }
}

/// The receiver half of one subscription.
#[derive(Debug)]
enum SubscriptionRx<T> {
    Channel(Receiver<T>, Arc<AtomicBool>),
    Bounded(Arc<BoundedQueue<T>>),
}

/// The subscriber end of a pub/sub topic.
#[derive(Debug)]
pub struct Subscription<T> {
    rx: SubscriptionRx<T>,
}

impl<T> Subscription<T> {
    /// Blocks until the next message (or the publisher is dropped).
    pub fn recv(&self) -> Option<T> {
        match &self.rx {
            SubscriptionRx::Channel(rx, _) => rx.recv().ok(),
            SubscriptionRx::Bounded(queue) => queue.pop_wait(None),
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        match &self.rx {
            SubscriptionRx::Channel(rx, _) => rx.try_recv().ok(),
            SubscriptionRx::Bounded(queue) => queue.try_pop(),
        }
    }

    /// Blocks up to `timeout` for the next message.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<T> {
        match &self.rx {
            SubscriptionRx::Channel(rx, _) => rx.recv_timeout(timeout).ok(),
            // A timeout too long for the clock to represent never ends.
            SubscriptionRx::Bounded(queue) => queue.pop_wait(Instant::now().checked_add(timeout)),
        }
    }

    /// Drains everything currently queued.
    pub fn drain(&self) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(v) = self.try_recv() {
            out.push(v);
        }
        out
    }

    /// How many messages this subscription has lost to its overflow
    /// policy. Always zero for unbounded subscriptions.
    #[must_use]
    pub fn lag_count(&self) -> u64 {
        match &self.rx {
            SubscriptionRx::Channel(..) => 0,
            SubscriptionRx::Bounded(queue) => queue.lost(),
        }
    }
}

impl<T> Drop for Subscription<T> {
    fn drop(&mut self) {
        match &self.rx {
            SubscriptionRx::Channel(_, closed) => closed.store(true, Ordering::Release),
            SubscriptionRx::Bounded(queue) => queue.close(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parks a thread in `recv()` on `s`, then runs `wake`, and returns
    /// what the receive returned. Hangs when `wake` does not wake it.
    fn recv_parked<T: Send>(
        s: Subscription<T>,
        wake: impl FnOnce(),
    ) -> (Option<T>, Subscription<T>) {
        std::thread::scope(|scope| {
            let parked = scope.spawn(move || (s.recv(), s));
            std::thread::sleep(Duration::from_millis(20));
            wake();
            parked.join().unwrap()
        })
    }

    #[test]
    fn fan_out_to_all_subscribers() {
        let topic: Publisher<String> = Publisher::new();
        let s1 = topic.subscribe();
        let s2 = topic.subscribe();
        assert_eq!(topic.publish("hello".into()), 2);
        assert_eq!(s1.recv().unwrap(), "hello");
        assert_eq!(s2.recv().unwrap(), "hello");
    }

    #[test]
    fn dropped_subscribers_are_pruned() {
        let topic: Publisher<u32> = Publisher::new();
        let s1 = topic.subscribe();
        {
            let _s2 = topic.subscribe();
        }
        assert_eq!(topic.publish(1), 1);
        assert_eq!(s1.recv(), Some(1));
        assert_eq!(topic.subscriber_count(), 1);
    }

    #[test]
    fn try_recv_and_drain() {
        let topic: Publisher<u32> = Publisher::new();
        let s = topic.subscribe();
        assert_eq!(s.try_recv(), None);
        topic.publish(1);
        topic.publish(2);
        topic.publish(3);
        assert_eq!(s.drain(), vec![1, 2, 3]);
        assert_eq!(s.try_recv(), None);
    }

    #[test]
    fn publish_without_subscribers_is_fine() {
        let topic: Publisher<u32> = Publisher::new();
        assert_eq!(topic.publish(42), 0);
    }

    #[test]
    fn late_subscriber_misses_earlier_messages() {
        let topic: Publisher<u32> = Publisher::new();
        topic.publish(1);
        let s = topic.subscribe();
        topic.publish(2);
        assert_eq!(s.drain(), vec![2]);
    }

    #[test]
    fn cross_thread_delivery() {
        let topic: Publisher<u32> = Publisher::new();
        let s = topic.subscribe();
        let t = std::thread::spawn(move || {
            for i in 0..100 {
                topic.publish(i);
            }
        });
        let mut got = Vec::new();
        for _ in 0..100 {
            got.push(s.recv().unwrap());
        }
        t.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn recv_timeout_elapses() {
        let topic: Publisher<u32> = Publisher::new();
        let s = topic.subscribe();
        assert_eq!(s.recv_timeout(Duration::from_millis(10)), None);
        topic.publish(7);
        assert_eq!(s.recv_timeout(Duration::from_millis(100)), Some(7));
    }

    #[test]
    fn recv_returns_none_after_publisher_drop() {
        let topic: Publisher<u32> = Publisher::new();
        let s = topic.subscribe();
        topic.publish(1);
        drop(topic);
        // Queued message still delivered, then a clean end-of-stream.
        assert_eq!(s.recv(), Some(1));
        assert_eq!(s.recv(), None);
        assert_eq!(s.recv_timeout(Duration::from_millis(50)), None);
    }

    #[test]
    fn blocking_recv_wakes_on_publisher_drop() {
        let topic: Publisher<u32> = Publisher::new();
        let s = topic.subscribe();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            drop(topic);
        });
        // Blocks with nothing queued, then unblocks with None.
        assert_eq!(s.recv(), None);
        t.join().unwrap();
    }

    #[test]
    fn concurrent_publishers_lose_nothing() {
        let topic: Publisher<u64> = Publisher::new();
        let s = topic.subscribe();
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let topic = topic.clone();
                std::thread::spawn(move || {
                    for i in 0..250u64 {
                        topic.publish(t * 1000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut got = s.drain();
        assert_eq!(got.len(), 1000);
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), 1000, "duplicates or losses under contention");
        // Per-publisher order is preserved even though threads interleave.
        drop(topic);
    }

    #[test]
    fn bounded_drop_oldest_keeps_the_newest() {
        let topic: Publisher<u32> = Publisher::new();
        let s = topic.subscribe_bounded(3, OverflowPolicy::DropOldest);
        for i in 0..10 {
            topic.publish(i);
        }
        assert_eq!(s.lag_count(), 7);
        assert_eq!(s.drain(), vec![7, 8, 9]);
        // A receive parked on the emptied queue is woken by the next
        // publish, which loses nothing.
        let (got, s) = recv_parked(s, || assert_eq!(topic.publish(10), 1));
        assert_eq!(got, Some(10));
        assert_eq!(s.lag_count(), 7);
    }

    #[test]
    fn bounded_drop_newest_keeps_the_oldest() {
        let topic: Publisher<u32> = Publisher::new();
        let s = topic.subscribe_bounded(3, OverflowPolicy::DropNewest);
        let mut delivered = 0;
        for i in 0..10 {
            delivered += usize::from(topic.publish(i) == 1);
        }
        assert_eq!(delivered, 3, "only the first three fit");
        assert_eq!(s.lag_count(), 7);
        assert_eq!(s.drain(), vec![0, 1, 2]);
        // Still subscribed: new messages flow once there is room again.
        topic.publish(42);
        assert_eq!(s.recv_timeout(Duration::from_millis(100)), Some(42));
        // ... and wake a receive parked on the emptied queue.
        let (got, s) = recv_parked(s, || assert_eq!(topic.publish(43), 1));
        assert_eq!(got, Some(43));
        assert_eq!(s.lag_count(), 7);
    }

    #[test]
    fn bounded_blocking_recv_ends_when_the_last_publisher_is_dropped() {
        let topic: Publisher<u32> = Publisher::new();
        let s = topic.subscribe_bounded(4, OverflowPolicy::DropOldest);
        // One of two handles going away ends nothing.
        drop(topic.clone());
        topic.publish(1);
        assert_eq!(s.recv(), Some(1));
        let (got, s) = recv_parked(s, || drop(topic));
        assert_eq!(got, None);
        assert_eq!(s.recv_timeout(Duration::from_secs(5)), None);

        // What was queued when the publisher went is still delivered.
        let topic: Publisher<u32> = Publisher::new();
        let s = topic.subscribe_bounded(4, OverflowPolicy::DropNewest);
        topic.publish(2);
        drop(topic);
        assert_eq!((s.recv(), s.recv()), (Some(2), None));
    }

    #[test]
    fn bounded_recv_timeout_honours_its_deadline() {
        let topic: Publisher<u32> = Publisher::new();
        let s = topic.subscribe_bounded(4, OverflowPolicy::DropOldest);
        let started = Instant::now();
        assert_eq!(s.recv_timeout(Duration::from_millis(30)), None);
        let waited = started.elapsed();
        assert!(waited >= Duration::from_millis(30), "{waited:?}");
        assert!(waited < Duration::from_secs(1), "{waited:?}");
        // A publish cuts the wait short instead of being found at the
        // next poll or at the deadline.
        let (got, _s) = recv_parked(s, || {
            topic.publish(5);
        });
        assert_eq!(got, Some(5));
    }

    #[test]
    fn bounded_subscriber_that_keeps_up_sees_everything() {
        let topic: Publisher<u32> = Publisher::new();
        let s = topic.subscribe_bounded(64, OverflowPolicy::DropOldest);
        // Publish in bursts no larger than the capacity and drain fully
        // between bursts: a subscriber that keeps up loses nothing.
        let mut got = Vec::new();
        for batch in 0..20u32 {
            for i in 0..50 {
                topic.publish(batch * 50 + i);
            }
            for _ in 0..50 {
                got.push(s.recv_timeout(Duration::from_secs(2)).unwrap());
            }
        }
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
        assert_eq!(s.lag_count(), 0);
    }

    #[test]
    fn live_subscriber_count_sees_drops_without_a_publish() {
        let topic: Publisher<u32> = Publisher::new();
        let a = topic.subscribe();
        let b = topic.subscribe_bounded(4, OverflowPolicy::DropOldest);
        assert_eq!(topic.live_subscriber_count(), 2);
        drop(a);
        assert_eq!(topic.live_subscriber_count(), 1, "no publish needed");
        drop(b);
        assert_eq!(topic.live_subscriber_count(), 0);
    }

    #[test]
    fn sink_sees_every_message_in_order_until_closed() {
        let topic: Publisher<u32> = Publisher::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        let closed = Arc::new(AtomicBool::new(false));
        topic.subscribe_sink(Arc::clone(&closed), move |&m| sink_seen.lock().push(m));
        let s = topic.subscribe();
        assert_eq!(topic.publish(1), 2);
        assert_eq!(topic.publish(2), 2);
        // Closing shows at once, without a publish, and drops the sink
        // (and whatever its callback holds).
        closed.store(true, Ordering::Release);
        assert_eq!(topic.live_subscriber_count(), 1);
        assert_eq!(Arc::strong_count(&seen), 1);
        assert_eq!(topic.publish(3), 1);
        assert_eq!(*seen.lock(), vec![1, 2]);
        assert_eq!(s.drain(), vec![1, 2, 3]);
    }

    #[test]
    fn dropped_bounded_subscriber_is_pruned() {
        let topic: Publisher<u32> = Publisher::new();
        let s = topic.subscribe_bounded(4, OverflowPolicy::DropOldest);
        drop(s);
        assert_eq!(topic.publish(1), 0);
        assert_eq!(topic.subscriber_count(), 0);
    }
}
