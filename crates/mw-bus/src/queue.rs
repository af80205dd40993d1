//! The one blocking bounded queue in the crate: behind every bounded
//! [`crate::Subscription`] and behind each remote client's writer thread
//! in [`crate::remote`].

use std::collections::VecDeque;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};

/// What a bounded subscription does with a new message when its queue is
/// full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverflowPolicy {
    /// Evict the oldest queued message to make room — the subscriber
    /// keeps up with the present and loses the past.
    DropOldest,
    /// Discard the incoming message — the subscriber keeps the past and
    /// misses the present.
    DropNewest,
}

/// What [`BoundedQueue::push`] did with the item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pushed {
    /// Queued; nothing was lost.
    Queued,
    /// Queued after evicting the oldest item from a full queue.
    EvictedOldest,
    /// Discarded: the queue was full and keeps the past.
    Discarded,
    /// Discarded: the queue is closed.
    Closed,
}

#[derive(Debug)]
struct State<T> {
    items: VecDeque<T>,
    /// Items lost to the overflow policy.
    lost: u64,
    closed: bool,
}

/// A multi-producer queue whose consumer parks until an item arrives:
/// `push` never blocks (the overflow policy decides what a full queue
/// loses) and wakes a parked `pop_wait`.
///
/// Either end may [`close`](BoundedQueue::close) it. Items already queued
/// can still be popped; pushes are refused, and a `pop_wait` on the
/// drained queue returns at once instead of parking.
#[derive(Debug)]
pub(crate) struct BoundedQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    capacity: usize,
    policy: OverflowPolicy,
}

impl<T> BoundedQueue<T> {
    /// A queue that starts out holding `items`. They are not clipped to
    /// `capacity`; the bound applies to what is pushed afterwards.
    pub(crate) fn new(items: VecDeque<T>, capacity: usize, policy: OverflowPolicy) -> Self {
        BoundedQueue {
            state: Mutex::new(State {
                items,
                lost: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            capacity,
            policy,
        }
    }

    pub(crate) fn push(&self, item: T) -> Pushed {
        let mut state = self.state.lock();
        if state.closed {
            return Pushed::Closed;
        }
        let mut outcome = Pushed::Queued;
        if state.items.len() >= self.capacity {
            state.lost += 1;
            match self.policy {
                OverflowPolicy::DropOldest => {
                    state.items.pop_front();
                    outcome = Pushed::EvictedOldest;
                }
                OverflowPolicy::DropNewest => return Pushed::Discarded,
            }
        }
        state.items.push_back(item);
        drop(state);
        self.ready.notify_one();
        outcome
    }

    pub(crate) fn try_pop(&self) -> Option<T> {
        self.state.lock().items.pop_front()
    }

    /// Pops the next item, parking while the queue is empty. Returns
    /// `None` once `deadline` has passed (`None`: never) or the queue is
    /// closed and drained.
    pub(crate) fn pop_wait(&self, deadline: Option<Instant>) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            match deadline {
                None => self.ready.wait(&mut state),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return None;
                    }
                    self.ready.wait_for(&mut state, left);
                }
            }
        }
    }

    /// Closes the queue and wakes every parked `pop_wait`.
    pub(crate) fn close(&self) {
        self.state.lock().closed = true;
        self.ready.notify_all();
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.state.lock().closed
    }

    /// How many items the overflow policy has cost so far.
    pub(crate) fn lost(&self) -> u64 {
        self.state.lock().lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn queue(capacity: usize, policy: OverflowPolicy) -> BoundedQueue<u32> {
        BoundedQueue::new(VecDeque::new(), capacity, policy)
    }

    #[test]
    fn overflow_follows_the_policy_and_is_counted() {
        let oldest = queue(2, OverflowPolicy::DropOldest);
        assert_eq!(oldest.push(1), Pushed::Queued);
        assert_eq!(oldest.push(2), Pushed::Queued);
        assert_eq!(oldest.push(3), Pushed::EvictedOldest);
        assert_eq!((oldest.try_pop(), oldest.try_pop()), (Some(2), Some(3)));
        assert_eq!(oldest.lost(), 1);

        let newest = queue(1, OverflowPolicy::DropNewest);
        assert_eq!(newest.push(1), Pushed::Queued);
        assert_eq!(newest.push(2), Pushed::Discarded);
        assert_eq!(newest.try_pop(), Some(1));
        assert_eq!(newest.lost(), 1);
    }

    #[test]
    fn initial_items_may_exceed_the_bound_until_drained() {
        let q = BoundedQueue::new(VecDeque::from([1, 2, 3, 4]), 2, OverflowPolicy::DropOldest);
        // One in, one out: the preload is never clipped wholesale.
        assert_eq!(q.push(5), Pushed::EvictedOldest);
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.lost(), 1);
    }

    #[test]
    fn a_parked_pop_is_woken_by_push_and_by_close() {
        let q = Arc::new(queue(4, OverflowPolicy::DropOldest));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || (q.pop_wait(None), q.pop_wait(None)))
        };
        // Each pause lets the consumer park, so a missing wake-up hangs
        // the join below.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.push(7), Pushed::Queued);
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), (Some(7), None));
        assert_eq!(q.push(8), Pushed::Closed);
    }

    #[test]
    fn close_lets_the_consumer_drain_what_was_queued() {
        let q = queue(4, OverflowPolicy::DropOldest);
        q.push(1);
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.pop_wait(None), Some(1));
        assert_eq!(q.pop_wait(None), None);
    }

    #[test]
    fn pop_wait_honours_its_deadline() {
        let q = queue(4, OverflowPolicy::DropOldest);
        let started = Instant::now();
        assert_eq!(q.pop_wait(Some(started + Duration::from_millis(30))), None);
        let waited = started.elapsed();
        assert!(waited >= Duration::from_millis(30), "{waited:?}");
        // A deadline already behind us is a plain try_pop.
        assert_eq!(q.pop_wait(Some(started)), None);
        q.push(9);
        assert_eq!(q.pop_wait(Some(started)), Some(9));
    }
}
