//! `--watch`: a wall-clock heartbeat for long runs, on **stderr only**.
//!
//! Artifacts in this repo are deterministic by contract, so wall-clock
//! progress can never live in them. The watch thread instead samples the
//! matrix trial counter (bumped by `run_matrix` as each trial finishes)
//! every period and prints a one-line heartbeat. Nothing here feeds back
//! into any run — reads are relaxed-atomic and purely advisory — so
//! `--watch` cannot change a single artifact byte.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

static TRIALS_DONE: AtomicUsize = AtomicUsize::new(0);

/// Record one finished trial. Called by `run_matrix` unconditionally — a
/// relaxed atomic bump per *trial* (not per event) is free. Single-trial
/// drivers outside the matrix (`--observe`) bump it themselves.
pub fn trial_finished() {
    TRIALS_DONE.fetch_add(1, Ordering::Relaxed);
}

/// A running heartbeat; dropping it stops the thread after a final line.
pub struct WatchGuard {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for WatchGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Start the heartbeat for a run of `total` trials, printing roughly every
/// `period`. Resets the trial counter, so start it before the run begins.
pub fn start(total: usize, period: Duration) -> WatchGuard {
    TRIALS_DONE.store(0, Ordering::Relaxed);
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let started = Instant::now();
    let thread = std::thread::Builder::new()
        .name("agora-watch".to_owned())
        .spawn(move || {
            loop {
                // Sleep in short slices so dropping the guard ends the
                // thread promptly rather than after a full period.
                let tick_end = Instant::now() + period;
                while Instant::now() < tick_end {
                    if stop_flag.load(Ordering::Relaxed) {
                        eprintln!("{}", heartbeat(total, started, true));
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
                eprintln!("{}", heartbeat(total, started, false));
            }
        })
        .expect("spawning the watch thread");
    WatchGuard {
        stop,
        thread: Some(thread),
    }
}

fn heartbeat(total: usize, started: Instant, fin: bool) -> String {
    let done = TRIALS_DONE.load(Ordering::Relaxed).min(total);
    heartbeat_line(done, total, started, fin)
}

fn heartbeat_line(done: usize, total: usize, started: Instant, fin: bool) -> String {
    let elapsed = started.elapsed().as_secs_f64();
    let eta = if done > 0 && done < total {
        format!(
            ", eta {:.0}s",
            elapsed / done as f64 * (total - done) as f64
        )
    } else {
        String::new()
    };
    let tag = if fin { "done" } else { "watch" };
    format!("[{tag}] {done}/{total} trials, {elapsed:.1}s elapsed{eta}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_reports_progress_and_eta_on_stderr_text() {
        let started = Instant::now() - Duration::from_secs(10);
        let line = heartbeat_line(1, 4, started, false);
        assert!(line.starts_with("[watch] 1/4 trials"), "{line}");
        assert!(line.contains("eta"), "{line}");
        let done = heartbeat_line(1, 1, started, true);
        assert!(done.starts_with("[done] 1/1 trials"), "{done}");
        assert!(!done.contains("eta"), "{done}");
    }

    #[test]
    fn guard_stops_the_thread_promptly() {
        let guard = start(3, Duration::from_secs(3600));
        let begun = Instant::now();
        drop(guard);
        assert!(
            begun.elapsed() < Duration::from_secs(2),
            "watch thread should exit within a slice, not a period"
        );
    }
}
