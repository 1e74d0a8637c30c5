//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no access to a crate registry, so this workspace
//! vendors the narrow slice of rayon's API that the LP batch solver uses:
//! [`join`] for two-way fork-join and [`scope`] with [`Scope::spawn`] for
//! n-way fork-join.
//!
//! Both run over [`std::thread::scope`]: every spawned task is an OS thread
//! joined before the scope returns, so tasks may borrow from the enclosing
//! stack frame, nested scopes cannot deadlock, and a panicking task makes
//! the scope panic once every task has finished.  A thread spawn costs a few
//! microseconds, which the one caller — a batch of independent LP solves,
//! one worker thread per batch slot — amortizes over whole solves.
//!
//! [`current_num_threads`] reports the host's available parallelism.

use std::thread;

/// Runs `a` and `b`, potentially in parallel, and returns both results.
///
/// `a` runs on a scoped thread while `b` runs on the caller's thread; a
/// panic in either closure propagates to the caller after both have
/// finished.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB,
    RA: Send,
{
    thread::scope(|s| {
        let ra = s.spawn(a);
        let rb = b();
        (ra.join().expect("rayon::join task panicked"), rb)
    })
}

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

/// The parallelism the host provides.
pub fn current_num_threads() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

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
    fn current_num_threads_is_positive() {
        assert!(current_num_threads() >= 1);
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
        let counter = AtomicUsize::new(0);
        scope(|outer| {
            for _ in 0..(current_num_threads() * 2 + 2) {
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
        assert_eq!(
            counter.load(Ordering::SeqCst),
            (current_num_threads() * 2 + 2) * 4
        );
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
        let (a, b) = join(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
    }
}
