//! A minimal scoped-thread work-stealing pool.
//!
//! No external dependencies: workers are `std::thread::scope` threads, each
//! with its own deque of task indices. A worker pops from the *front* of its
//! own deque and, when empty, steals from the *back* of a victim's — the
//! classic split that keeps owner and thief off the same end. Tasks are
//! pure index-addressed closures and results land in index-addressed slots,
//! so the scheduling order (and therefore the thread count) can never
//! change what the caller observes.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::thread;

/// Run `n` tasks `f(0) .. f(n-1)` on `threads` workers and return results in
/// index order. `threads` is clamped to `[1, n]`. Panics inside `f`
/// propagate; callers that need isolation wrap `f` in `catch_unwind`.
pub fn run_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);

    // Preload deques round-robin so consecutive (often similarly heavy)
    // trials spread across workers; stealing rebalances the rest.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|w| Mutex::new((w..n).step_by(threads).collect()))
        .collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();

    thread::scope(|s| {
        for w in 0..threads {
            let queues = &queues;
            let slots = &slots;
            let f = &f;
            s.spawn(move || loop {
                // Own statement: the guard on our own deque must drop before
                // we lock a victim's, or idle workers deadlock in a cycle.
                let own = queues[w].lock().expect("pool queue poisoned").pop_front();
                let task = own.or_else(|| {
                    // Steal from the back of the first non-empty victim.
                    (1..threads).find_map(|off| {
                        queues[(w + off) % threads]
                            .lock()
                            .expect("pool queue poisoned")
                            .pop_back()
                    })
                });
                // No queue holds work: everything left is already running
                // on another worker, and nothing re-enqueues, so exit.
                let Some(i) = task else { break };
                let out = f(i);
                *slots[i].lock().expect("pool slot poisoned") = Some(out);
            });
        }
    });

    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("pool slot poisoned")
                .expect("every task index was queued exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_in_index_order_any_thread_count() {
        for threads in [1, 2, 3, 8, 64] {
            let out = run_indexed(37, threads, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_tasks() {
        let out: Vec<u32> = run_indexed(0, 4, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let ran = AtomicUsize::new(0);
        let out = run_indexed(1000, 8, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn unbalanced_work_is_stolen() {
        // Front-load all heavy tasks onto low indices (worker 0's deque under
        // round-robin with 2 threads gets half of them); stealing must still
        // finish everything.
        let out = run_indexed(64, 2, |i| {
            if i < 8 {
                // Busy-ish task.
                let mut acc = 0u64;
                for k in 0..200_000u64 {
                    acc = acc.wrapping_add(k ^ i as u64);
                }
                acc as usize
            } else {
                i
            }
        });
        assert_eq!(out.len(), 64);
        assert_eq!(out[63], 63);
    }
}
