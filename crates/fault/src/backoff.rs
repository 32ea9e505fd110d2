//! Capped exponential backoff with deterministic jitter — the shared
//! retry schedule for self-healing loops (background re-induction,
//! replication reconnects).
//!
//! Delays double from a base up to a cap, and each delay is jittered
//! into `[delay/2, delay)` by a seeded [`Rng`] stream of its own, so a
//! fleet of retrying loops does not reconnect in lockstep. For a fixed
//! seed the schedule is fully deterministic, which keeps chaos runs
//! replayable.

use crate::Rng;
use std::time::Duration;

/// A capped-exponential retry schedule. Call [`Backoff::next_delay`]
/// after each failure and sleep for the returned duration; call
/// [`Backoff::reset`] after a success.
#[derive(Debug, Clone)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    jitter: Rng,
}

impl Backoff {
    /// A schedule doubling from `base` up to `cap`, jittered by a
    /// deterministic stream seeded with `seed`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        Backoff {
            base: base.max(Duration::from_millis(1)),
            cap: cap.max(base),
            attempt: 0,
            jitter: Rng::new(seed),
        }
    }

    /// How many consecutive failures have been recorded.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Record a failure and return how long to wait before retrying:
    /// `min(base * 2^(attempt-1), cap)`, jittered into `[d/2, d)`.
    pub fn next_delay(&mut self) -> Duration {
        self.attempt = self.attempt.saturating_add(1);
        self.delay_for(self.attempt)
    }

    /// The jittered delay for a given 1-based attempt number, without
    /// advancing the failure count (for callers that track their own).
    pub fn delay_for(&mut self, attempt: u32) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.clamp(1, 20).saturating_sub(1));
        let delay = exp.min(self.cap);
        let half_ms = (delay.as_millis() as u64 / 2).max(1);
        delay / 2 + Duration::from_millis(self.jitter.next_u64() % half_ms)
    }

    /// Record a success: the next failure starts from `base` again.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grows_to_the_cap_and_stays_bounded() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(200);
        let mut b = Backoff::new(base, cap, 7);
        let mut last = Duration::ZERO;
        for _ in 0..12 {
            let d = b.next_delay();
            assert!(d >= base / 2, "jitter floor is half the delay");
            assert!(d < cap, "jittered delay stays under the cap");
            last = d;
        }
        assert!(last >= cap / 2, "late attempts sit at the cap");
    }

    #[test]
    fn reset_returns_to_the_base() {
        let mut b = Backoff::new(Duration::from_millis(8), Duration::from_secs(1), 3);
        for _ in 0..6 {
            b.next_delay();
        }
        assert_eq!(b.attempt(), 6);
        b.reset();
        assert_eq!(b.attempt(), 0);
        let d = b.next_delay();
        assert!(d < Duration::from_millis(8), "first retry is near base/2");
    }

    #[test]
    fn same_seed_same_schedule() {
        let mk = || Backoff::new(Duration::from_millis(5), Duration::from_millis(500), 42);
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..10 {
            assert_eq!(a.next_delay(), b.next_delay());
        }
        let mut c = Backoff::new(Duration::from_millis(5), Duration::from_millis(500), 43);
        let differs = (0..10).any(|_| a.next_delay() != c.next_delay());
        assert!(differs, "different seeds must decorrelate");
    }

    #[test]
    fn zero_seed_and_zero_base_are_remapped() {
        let mut b = Backoff::new(Duration::ZERO, Duration::ZERO, 0);
        let d = b.next_delay();
        assert!(d <= Duration::from_millis(1));
    }
}
