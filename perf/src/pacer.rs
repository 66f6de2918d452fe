//! Open-loop pacing: when each request is due, and how late it left.
//!
//! Due times are computed from the request's index, never from the
//! previous send, so a stall does not shift the schedule: requests that
//! were held up are sent back-to-back afterwards and their latency is
//! counted from when they *should* have left.

use std::time::{Duration, Instant};

/// Width of one latency window of the paced phase.
pub const WINDOW_NS: u64 = 500_000_000;

/// A fixed-rate schedule.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    rate_per_s: u64,
}

impl Pacer {
    /// A schedule of `rate_per_s` requests per second.
    pub fn new(rate_per_s: u64) -> Pacer {
        assert!(rate_per_s > 0, "rate must be positive");
        Pacer { rate_per_s }
    }

    /// Nanoseconds after the schedule's start at which request `i` is due.
    /// Integer arithmetic on the index: no accumulated rounding drift.
    pub fn due_ns(&self, i: u64) -> u64 {
        (u128::from(i) * 1_000_000_000 / u128::from(self.rate_per_s)) as u64
    }

    /// Requests that fall due within `windows` latency windows.
    pub fn requests_in(&self, windows: usize) -> usize {
        (u128::from(self.rate_per_s) * u128::from(WINDOW_NS) * windows as u128 / 1_000_000_000)
            as usize
    }

    /// The latency window request `i` belongs to (by due time).
    pub fn window_of(&self, i: u64) -> usize {
        (self.due_ns(i) / WINDOW_NS) as usize
    }

    /// Blocks until `due_ns` after `start`: sleeps through long gaps and
    /// yields through short ones, so the generator does not monopolise a
    /// core of a small host.
    pub fn wait_until(start: Instant, due_ns: u64) {
        const SLEEP_MARGIN: Duration = Duration::from_micros(120);
        let due = Duration::from_nanos(due_ns);
        loop {
            let now = start.elapsed();
            if now >= due {
                return;
            }
            let gap = due - now;
            if gap > SLEEP_MARGIN + SLEEP_MARGIN / 2 {
                std::thread::sleep(gap - SLEEP_MARGIN);
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// How far behind its schedule the generator ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Lateness {
    /// Requests accounted.
    pub sent: u64,
    /// Largest `sent_at − due`.
    pub max_ns: u64,
    /// Sum of `sent_at − due` (early sends count as zero).
    pub total_ns: u64,
    /// Requests that left more than 1 ms late.
    pub over_1ms: u64,
}

impl Lateness {
    /// Accounts one request due at `due_ns` that entered `submit` at
    /// `sent_ns` (both relative to the schedule's start).
    pub fn record(&mut self, due_ns: u64, sent_ns: u64) {
        let late = sent_ns.saturating_sub(due_ns);
        self.sent += 1;
        self.max_ns = self.max_ns.max(late);
        self.total_ns += late;
        if late > 1_000_000 {
            self.over_1ms += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_index_without_drift() {
        let p = Pacer::new(60_000);
        assert_eq!(p.due_ns(0), 0);
        assert_eq!(p.due_ns(60_000), 1_000_000_000);
        assert_eq!(p.due_ns(3), 50_000);
        // 1/3 ns per step is truncated per request, never accumulated.
        let q = Pacer::new(3);
        assert_eq!(q.due_ns(1), 333_333_333);
        assert_eq!(q.due_ns(2), 666_666_666);
        assert_eq!(q.due_ns(3_000_000), 1_000_000_000_000_000);
    }

    #[test]
    fn windows_partition_the_schedule() {
        let p = Pacer::new(400);
        assert_eq!(p.requests_in(10), 2_000);
        assert_eq!(p.window_of(0), 0);
        assert_eq!(p.window_of(199), 0);
        assert_eq!(p.window_of(200), 1);
        assert_eq!(p.window_of(1_999), 9);
    }

    #[test]
    fn lateness_counts_only_late_sends() {
        let mut l = Lateness::default();
        l.record(1_000, 900); // early: zero
        l.record(2_000, 2_500);
        l.record(3_000, 3_000 + 2_000_000);
        assert_eq!(
            l,
            Lateness {
                sent: 3,
                max_ns: 2_000_000,
                total_ns: 2_000_500,
                over_1ms: 1,
            }
        );
    }

    #[test]
    fn wait_until_returns_at_or_after_the_due_time() {
        let start = Instant::now();
        Pacer::wait_until(start, 2_000_000);
        assert!(start.elapsed() >= Duration::from_millis(2));
        // A due time in the past returns immediately.
        Pacer::wait_until(start, 0);
    }
}
