//! Offline stand-in for `parking_lot`: std locks with the non-poisoning
//! API shape (`lock`/`read`/`write` return guards directly).

use std::ops::{Deref, DerefMut};
use std::sync::{self, TryLockError};
use std::time::Duration;

pub use sync::{RwLockReadGuard, RwLockWriteGuard};

/// A mutex that, like `parking_lot::Mutex`, does not expose poisoning:
/// a panic while holding the lock leaves the data accessible.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    pub fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(|e| e.into_inner())))
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(TryLockError::Poisoned(e)) => Some(MutexGuard(Some(e.into_inner()))),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// The guard [`Mutex::lock`] returns. It wraps the std guard in an
/// `Option` only so [`Condvar::wait`] can take `&mut MutexGuard` as
/// `parking_lot`'s does (std's condvar consumes and returns the guard);
/// the slot is empty only inside such a wait.
#[derive(Debug)]
pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.0
            .as_ref()
            .expect("guard is held outside Condvar waits")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0
            .as_mut()
            .expect("guard is held outside Condvar waits")
    }
}

/// Whether a [`Condvar::wait_for`] returned because its timeout elapsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable without poisoning, mirroring
/// `parking_lot::Condvar`: waits re-lock the guard in place. As with the
/// real one, wake-ups may be spurious — callers loop on their condition.
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    pub fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Releases the lock, parks until notified, and re-locks.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let held = guard.0.take().expect("guard is held outside Condvar waits");
        guard.0 = Some(self.0.wait(held).unwrap_or_else(|e| e.into_inner()));
    }

    /// [`Condvar::wait`] bounded by `timeout`.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let held = guard.0.take().expect("guard is held outside Condvar waits");
        let (held, result) = self
            .0
            .wait_timeout(held, timeout)
            .unwrap_or_else(|e| e.into_inner());
        guard.0 = Some(held);
        WaitTimeoutResult(result.timed_out())
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// A reader-writer lock without poisoning, mirroring `parking_lot::RwLock`.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    pub fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.0.try_read() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    pub fn try_write(&self) -> Option<RwLockWriteGuard<'_, T>> {
        match self.0.try_write() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn condvar_wakes_a_waiter_and_times_out_without_one() {
        let pair = std::sync::Arc::new((Mutex::new(false), Condvar::new()));
        let waiter = {
            let pair = std::sync::Arc::clone(&pair);
            std::thread::spawn(move || {
                let (flag, ready) = &*pair;
                let mut set = flag.lock();
                while !*set {
                    ready.wait(&mut set);
                }
            })
        };
        *pair.0.lock() = true;
        pair.1.notify_all();
        waiter.join().unwrap();

        // Nobody notifies: the timed wait reports the timeout and hands
        // the lock back usable.
        let mut set = pair.0.lock();
        let started = std::time::Instant::now();
        assert!(pair
            .1
            .wait_for(&mut set, Duration::from_millis(20))
            .timed_out());
        assert!(started.elapsed() >= Duration::from_millis(20));
        *set = false;
        drop(set);
        pair.1.notify_one();
        assert!(!*pair.0.lock());
    }

    #[test]
    fn rwlock_roundtrip() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(*l.read(), vec![1, 2]);
    }

    #[test]
    fn rwlock_try_variants() {
        let l = RwLock::new(0);
        {
            let _r = l.read();
            assert!(l.try_read().is_some(), "readers share");
            assert!(l.try_write().is_none(), "writer blocked by reader");
        }
        {
            let mut w = l.try_write().expect("uncontended");
            *w = 7;
        }
        assert_eq!(*l.try_read().expect("uncontended"), 7);
    }
}
