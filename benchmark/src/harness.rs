//! Process-level plumbing shared by the workloads: CPU and memory
//! accounting, the run watchdog, bounded waits, and the scratch directory.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc/self/stat` times. `USER_HZ`
/// is 100 on every Linux architecture the toolchain targets; reading it
/// properly needs `sysconf`, i.e. libc, which the hermetic build avoids.
const USER_HZ: f64 = 100.0;

/// Process CPU time (user + system, all threads) in microseconds.
pub fn process_cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th overall, i.e. the 12th and 13th after it.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let mut fields = after.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    let (utime, stime) = (ticks(fields.next()), ticks(fields.next()));
    (utime + stime) * 1e6 / USER_HZ
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Restart the kernel's peak-RSS watermark (`VmHWM`) at the current
/// resident size, so a later [`peak_rss_mb`] reads the peak *since now* —
/// of the timed window, not of the set-ups torn down before it. Best
/// effort: where `/proc/self/clear_refs` is not writable the watermark
/// simply keeps covering the whole process.
pub fn restart_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A fresh scratch directory under the benchmark's own `.work/` (the
/// benchmark may only write inside its checkout), removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create `.work/<tag>-<pid>-<n>` under the current directory.
    pub fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::current_dir()
            .unwrap_or_else(|_| PathBuf::from("."))
            .join(".work")
            .join(format!("{tag}-{}-{}", std::process::id(), SEQ.fetch_add(1, Ordering::Relaxed)));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory under .work/");
        WorkDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Poll `done` every `poll` until it holds or `deadline` passes; returns
/// whether it held. Every completion criterion in the benchmark goes
/// through here, so none can wait forever.
pub fn wait_until(deadline: Instant, poll: Duration, mut done: impl FnMut() -> bool) -> bool {
    loop {
        if done() {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(poll);
    }
}

/// Sleep until the shared clock reads `due_us` (returns at once when it
/// already does). Plain `sleep`: an open-loop generator that spun for
/// precision would burn one of the two cores the program under test needs;
/// the overshoot is measured and reported as generator lateness instead.
pub fn sleep_until_us(now_us: impl Fn() -> u64, due_us: u64) {
    let now = now_us();
    if due_us > now {
        std::thread::sleep(Duration::from_micros(due_us - now));
    }
}

struct WatchdogState {
    disarmed: Mutex<bool>,
    cv: Condvar,
}

/// The run's hard deadline. If the run is still going when it expires —
/// a wait inside the program under test never returned — the watchdog
/// thread runs `on_expiry` (which dumps per-site state and prints a
/// failing result) and exits the process instead of hanging.
pub struct Watchdog {
    state: Arc<WatchdogState>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Arm a watchdog that fires after `limit`. `on_expiry` returns the
    /// process exit code; `exit` is `std::process::exit` outside tests.
    pub fn arm(
        limit: Duration,
        on_expiry: impl FnOnce() -> i32 + Send + 'static,
        exit: impl FnOnce(i32) + Send + 'static,
    ) -> Self {
        let state = Arc::new(WatchdogState { disarmed: Mutex::new(false), cv: Condvar::new() });
        let thread_state = Arc::clone(&state);
        let thread = std::thread::Builder::new()
            .name("bench-watchdog".into())
            .spawn(move || {
                let deadline = Instant::now() + limit;
                let mut disarmed = thread_state.disarmed.lock().expect("watchdog lock");
                while !*disarmed {
                    let now = Instant::now();
                    if now >= deadline {
                        drop(disarmed);
                        exit(on_expiry());
                        return;
                    }
                    disarmed = thread_state
                        .cv
                        .wait_timeout(disarmed, deadline - now)
                        .expect("watchdog lock")
                        .0;
                }
            })
            .expect("spawn watchdog");
        Watchdog { state, thread: Some(thread) }
    }

    /// Stand down (the run finished) and join the thread.
    pub fn disarm(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        *self.state.disarmed.lock().expect("watchdog lock") = true;
        self.state.cv.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_and_rss_read_nonzero() {
        // Burn a little CPU so utime is certainly past one tick.
        let t = Instant::now();
        let mut x = 0u64;
        while t.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_us() > 0.0);
        assert!(peak_rss_mb() > 1.0);
        // Touch 64 MiB, drop it, restart the watermark: the peak falls.
        let before = peak_rss_mb();
        let block = vec![1u8; 64 << 20];
        assert!(std::hint::black_box(&block).iter().map(|&b| u64::from(b)).sum::<u64>() > 0);
        let high = peak_rss_mb();
        assert!(high >= before + 60.0, "{before} -> {high}");
        drop(block);
        restart_peak_rss();
        let after = peak_rss_mb();
        assert!(after < high || std::fs::write("/proc/self/clear_refs", "5").is_err(), "{after}");
    }

    #[test]
    fn a_never_completing_criterion_is_cut_off_at_the_deadline() {
        let t = Instant::now();
        let held = wait_until(t + Duration::from_millis(40), Duration::from_millis(1), || false);
        assert!(!held, "the criterion never holds");
        let took = t.elapsed();
        assert!(took >= Duration::from_millis(40) && took < Duration::from_secs(2), "{took:?}");
        assert!(wait_until(t, Duration::from_millis(1), || true), "a met criterion wins");
    }

    #[test]
    fn watchdog_fires_once_the_limit_passes_and_not_before() {
        let (tx, rx) = std::sync::mpsc::channel();
        let dog =
            Watchdog::arm(Duration::from_millis(30), || 7, move |code| tx.send(code).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(7), "expiry runs the exit hook");
        dog.disarm();

        let (tx, rx) = std::sync::mpsc::channel::<i32>();
        let dog = Watchdog::arm(Duration::from_secs(60), || 7, move |code| tx.send(code).unwrap());
        dog.disarm();
        assert!(rx.try_recv().is_err(), "a disarmed watchdog never fires");
    }

    #[test]
    fn work_dirs_are_unique_and_removed() {
        let (a, b) = (WorkDir::new("t"), WorkDir::new("t"));
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        assert!(kept.is_dir());
        drop(a);
        assert!(!kept.exists());
    }
}
