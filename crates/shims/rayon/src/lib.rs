//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no access to a crate registry, so this workspace
//! vendors the one piece of rayon's API that the LP batch solver uses:
//! [`scope`] with [`Scope::spawn`] for n-way fork-join.
//!
//! It runs over [`std::thread::scope`]: every spawned task is an OS thread
//! joined before the scope returns, so tasks may borrow from the enclosing
//! stack frame, nested scopes cannot deadlock, and a panicking task makes
//! the scope panic once every task has finished.  A thread spawn costs a few
//! microseconds, which the one caller — a batch of independent LP solves,
//! one worker thread per batch slot — amortizes over whole solves.

use std::thread;

/// A fork-join scope handed to the closure of [`scope`]; spawned tasks may
/// borrow from the enclosing stack frame and are joined when the scope ends.
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope thread::Scope<'scope, 'env>,
}

impl<'scope> Scope<'scope, '_> {
    /// Spawns a task on its own scoped thread, to run concurrently with the
    /// rest of the scope.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.inner.spawn(f);
    }
}

/// Creates a fork-join scope: every task spawned through the [`Scope`] has
/// finished before `scope` returns, and a task panic resurfaces here.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    thread::scope(|s| f(&Scope { inner: s }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scope_joins_all_spawns_and_allows_borrows() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn many_more_tasks_than_workers_all_complete() {
        let counter = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..256 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 256);
    }

    #[test]
    fn nested_scopes_make_progress() {
        // Every outer task opens an inner scope of its own; all of them
        // drain, however many outer tasks are blocked in an inner drain.
        const OUTER: usize = 6;
        let counter = AtomicUsize::new(0);
        scope(|outer| {
            for _ in 0..OUTER {
                outer.spawn(|| {
                    scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                counter.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), OUTER * 4);
    }

    #[test]
    fn scope_propagates_task_panic() {
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            scope(|s| {
                s.spawn(|| panic!("task boom"));
            });
        }));
        assert!(caught.is_err(), "task panic must reach the scope owner");
        // Scopes stay usable afterwards.
        let counter = AtomicUsize::new(0);
        scope(|s| {
            s.spawn(|| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }
}
