//! Minimal vendored stand-in for `parking_lot`, backed by `std::sync`.
//!
//! The workspace builds offline, so the real crate cannot be fetched from a
//! registry.  This shim keeps the same call surface (`lock()` / `read()` /
//! `write()` returning guards directly, no poisoning) on top of the standard
//! library primitives.  Poisoned locks are recovered transparently: a
//! panicked holder does not poison data structures here any more than it
//! would under the real parking_lot.

pub use std::sync::MutexGuard;
pub use std::sync::{RwLockReadGuard, RwLockWriteGuard};

/// Mutual exclusion primitive; `lock()` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `t`.
    pub const fn new(t: T) -> Self {
        Mutex(std::sync::Mutex::new(t))
    }

    /// Acquires the mutex, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }
}

/// Reader-writer lock; `read()` / `write()` return guards directly.
#[derive(Debug, Default)]
pub struct RwLock<T>(std::sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock protecting `t`.
    pub const fn new(t: T) -> Self {
        RwLock(std::sync::RwLock::new(t))
    }

    /// Acquires a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn rwlock_round_trip() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }
}
