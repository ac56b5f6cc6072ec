//! Minimal, dependency-free stand-in for the part of the `rayon` crate
//! this workspace uses.
//!
//! The build environment is offline, so the real `rayon` cannot be
//! fetched from crates.io. The workspace needs one primitive,
//! [`stream_ordered`]: a bounded-window parallel map whose results reach
//! a consumer in input order. Every engine of `corridor_sim` runs on it,
//! and so does the `serve` coordinator's chunk dispatch, so a report's
//! bytes are identical whatever the worker or shard count. The real
//! crate has no such function; the shim keeps the crate name so the
//! dependency entries and lockfiles that name it stay valid.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, PoisonError};
use std::thread;

/// Locks a mutex, ignoring poisoning (a panicked worker's payload is
/// re-raised on the calling thread; the shared state stays usable).
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared state of one [`stream_ordered`] run: the lazy item source,
/// the assignment/emission cursors and the reorder buffer, all behind
/// one mutex with two condvars (`work`: a window slot or new work may be
/// available; `results`: a result the consumer may be waiting on landed).
struct StreamState<I: Iterator, R> {
    source: I,
    source_done: bool,
    /// Index the next pulled item will get (== items assigned so far).
    next_index: usize,
    /// Results handed to the consumer so far.
    emitted: usize,
    /// Items currently being computed by a worker.
    in_flight: usize,
    /// Finished results awaiting in-order emission (panics included, so
    /// an assigned item always produces exactly one entry).
    ready: BTreeMap<usize, thread::Result<R>>,
    /// Set on worker panic or consumer error: workers stop pulling.
    cancelled: bool,
}

/// Maps `items` through `f` on `workers` threads and feeds the results
/// to `consume` **in input order**, with at most `window` items assigned
/// but not yet consumed — the bounded-channel backpressure primitive
/// behind the streaming engines.
///
/// Neither the input nor the output is ever materialized: items are
/// pulled lazily from the iterator as window slots free up, and each
/// result is dropped (or forwarded) by `consume` before the window admits
/// more work. Memory is O(`window`) regardless of input length. `consume`
/// runs on the calling thread; returning `Err` cancels the remaining work
/// and the error is handed back. A panic inside `f` cancels the stream
/// and is re-raised on the calling thread once in-flight work has
/// drained. With identical inputs the consumed sequence is identical for
/// every worker count.
///
/// `workers == 0` or `1` runs serially on the calling thread; `window`
/// is clamped to at least 1.
///
/// # Errors
///
/// Returns the first `Err` produced by `consume`; the remaining items
/// are not computed.
///
/// # Examples
///
/// ```
/// let mut seen = Vec::new();
/// rayon::stream_ordered(0..100usize, 4, 8, |i| i * i, |sq| {
///     seen.push(sq);
///     Ok::<(), ()>(())
/// })
/// .unwrap();
/// assert_eq!(seen[9], 81);
/// assert_eq!(seen.len(), 100);
/// ```
pub fn stream_ordered<I, R, E, F, C>(
    items: I,
    workers: usize,
    window: usize,
    f: F,
    mut consume: C,
) -> Result<(), E>
where
    I: IntoIterator,
    I::Item: Send,
    I::IntoIter: Send,
    R: Send,
    F: Fn(I::Item) -> R + Sync,
    C: FnMut(R) -> Result<(), E>,
{
    if workers <= 1 {
        for item in items {
            consume(f(item))?;
        }
        return Ok(());
    }
    let window = window.max(1);
    let state = Mutex::new(StreamState {
        source: items.into_iter(),
        source_done: false,
        next_index: 0,
        emitted: 0,
        in_flight: 0,
        ready: BTreeMap::new(),
        cancelled: false,
    });
    let work = Condvar::new();
    let results = Condvar::new();
    let (error, panic) = thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                loop {
                    let task = {
                        let mut st = lock(&state);
                        loop {
                            if st.cancelled || st.source_done {
                                break None;
                            }
                            if st.next_index - st.emitted < window {
                                match st.source.next() {
                                    Some(item) => {
                                        let index = st.next_index;
                                        st.next_index += 1;
                                        st.in_flight += 1;
                                        break Some((index, item));
                                    }
                                    None => {
                                        st.source_done = true;
                                        // wake the consumer (it may be
                                        // waiting for a result that will
                                        // never exist) and idle peers
                                        results.notify_all();
                                        work.notify_all();
                                        break None;
                                    }
                                }
                            }
                            st = work.wait(st).unwrap_or_else(PoisonError::into_inner);
                        }
                    };
                    let Some((index, item)) = task else {
                        return;
                    };
                    let result = catch_unwind(AssertUnwindSafe(|| f(item)));
                    let mut st = lock(&state);
                    st.in_flight -= 1;
                    if result.is_err() {
                        st.cancelled = true;
                        work.notify_all();
                    }
                    st.ready.insert(index, result);
                    results.notify_all();
                }
            });
        }
        let mut error = None;
        let mut panic = None;
        let mut emit_index = 0usize;
        loop {
            let next = {
                let mut st = lock(&state);
                loop {
                    if let Some(result) = st.ready.remove(&emit_index) {
                        st.emitted += 1;
                        work.notify_all();
                        break Some(result);
                    }
                    if st.source_done && st.in_flight == 0 && emit_index >= st.next_index {
                        break None;
                    }
                    st = results.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            };
            match next {
                None => break,
                Some(Ok(result)) => {
                    if let Err(err) = consume(result) {
                        lock(&state).cancelled = true;
                        work.notify_all();
                        error = Some(err);
                        break;
                    }
                    emit_index += 1;
                }
                Some(Err(payload)) => {
                    lock(&state).cancelled = true;
                    work.notify_all();
                    panic = Some(payload);
                    break;
                }
            }
        }
        (error, panic)
    });
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
    }
    match error {
        Some(err) => Err(err),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn stream_ordered_preserves_order() {
        for workers in [1usize, 2, 8] {
            let mut seen = Vec::new();
            stream_ordered(
                0..500usize,
                workers,
                4,
                |i| i * 3,
                |r| {
                    seen.push(r);
                    Ok::<(), ()>(())
                },
            )
            .unwrap();
            assert_eq!(
                seen,
                (0..500).map(|i| i * 3).collect::<Vec<_>>(),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn stream_ordered_bounds_outstanding_work() {
        const WINDOW: usize = 4;
        let produced = AtomicUsize::new(0);
        let consumed = AtomicUsize::new(0);
        let max_gap = AtomicUsize::new(0);
        stream_ordered(
            0..300usize,
            8,
            WINDOW,
            |i| {
                let p = produced.fetch_add(1, Ordering::SeqCst) + 1;
                let gap = p.saturating_sub(consumed.load(Ordering::SeqCst));
                max_gap.fetch_max(gap, Ordering::SeqCst);
                i
            },
            |_| {
                consumed.fetch_add(1, Ordering::SeqCst);
                Ok::<(), ()>(())
            },
        )
        .unwrap();
        // the window admits at most WINDOW assigned-but-unconsumed items;
        // the produced/consumed counters lag assignment/emission by at
        // most one item each, hence the +1 slack
        assert!(
            max_gap.load(Ordering::SeqCst) <= WINDOW + 1,
            "observed gap {} with window {WINDOW}",
            max_gap.load(Ordering::SeqCst)
        );
        assert_eq!(consumed.load(Ordering::SeqCst), 300);
    }

    #[test]
    fn stream_ordered_consumer_error_cancels_remaining_work() {
        let computed = AtomicUsize::new(0);
        let result = stream_ordered(
            0..100_000usize,
            4,
            4,
            |i| {
                computed.fetch_add(1, Ordering::SeqCst);
                i
            },
            |i| if i == 9 { Err("enough") } else { Ok(()) },
        );
        assert_eq!(result, Err("enough"));
        // cancellation means nowhere near the full input was computed
        assert!(computed.load(Ordering::SeqCst) < 1000);
    }

    #[test]
    fn stream_ordered_propagates_worker_panics() {
        let caught = std::panic::catch_unwind(|| {
            stream_ordered(
                0..64usize,
                4,
                4,
                |i| {
                    if i == 13 {
                        panic!("unlucky");
                    }
                    i
                },
                |_| Ok::<(), ()>(()),
            )
        });
        let payload = caught.unwrap_err();
        let message = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(message, "unlucky");
    }

    #[test]
    fn stream_ordered_handles_empty_and_tiny_inputs() {
        for workers in [1usize, 8] {
            let mut seen: Vec<usize> = Vec::new();
            stream_ordered(
                std::iter::empty::<usize>(),
                workers,
                4,
                |i| i,
                |r| {
                    seen.push(r);
                    Ok::<(), ()>(())
                },
            )
            .unwrap();
            assert!(seen.is_empty());
            stream_ordered(
                [7usize],
                workers,
                1,
                |i| i + 1,
                |r| {
                    seen.push(r);
                    Ok::<(), ()>(())
                },
            )
            .unwrap();
            assert_eq!(seen, vec![8]);
            seen.clear();
        }
    }
}
