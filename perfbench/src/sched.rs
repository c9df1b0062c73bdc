//! Open-loop query schedule and its due-time accounting.
//!
//! Queries are due at a fixed rate whatever the daemon does. A lane
//! (one thread with one connection) can only send after the reply to
//! its previous query, so a stalled reply delays every later query of
//! the lane; timing from the due time charges that wait to the daemon.
//! What the lane adds by itself — waking late, or being slow to send
//! once free — is the generator's lateness, kept apart so a slow client
//! is not reported as daemon latency.

use std::time::{Duration, Instant};

/// A fixed-rate schedule of queries interleaved over `lanes` lanes.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    period: Duration,
    lanes: u32,
}

impl Schedule {
    /// `rate` queries per second in total, starting at `start`.
    #[must_use]
    pub fn new(start: Instant, rate: u32, lanes: u32) -> Schedule {
        assert!(rate > 0 && lanes > 0, "rate and lanes must be positive");
        Schedule {
            start,
            period: Duration::from_secs(1) / rate,
            lanes,
        }
    }

    /// Global sequence number of the `k`-th query of `lane`.
    #[must_use]
    pub fn seq(&self, lane: u32, k: u64) -> u64 {
        k * u64::from(self.lanes) + u64::from(lane)
    }

    /// When the `k`-th query of `lane` is due.
    #[must_use]
    pub fn due(&self, lane: u32, k: u64) -> Instant {
        let seq = u32::try_from(self.seq(lane, k)).expect("schedule fits in u32 periods");
        self.start + self.period * seq
    }
}

/// The instants of one query.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// When the schedule wanted it sent.
    pub due: Instant,
    /// When the lane was free: the reply to its previous query arrived
    /// (or the lane's start for its first query).
    pub free: Instant,
    /// When it was sent.
    pub sent: Instant,
    /// When its reply was complete.
    pub replied: Instant,
}

impl Timing {
    /// Latency charged to the daemon: from due time to reply, less the
    /// generator's own lateness. It includes waiting for the lane's
    /// previous reply, which the daemon caused.
    #[must_use]
    pub fn latency(&self) -> Duration {
        self.replied
            .saturating_duration_since(self.due)
            .saturating_sub(self.generator_late())
    }

    /// Round trip on the wire: from send to reply.
    #[must_use]
    pub fn round_trip(&self) -> Duration {
        self.replied.saturating_duration_since(self.sent)
    }

    /// The generator's own lateness: how long after the later of due
    /// time and lane-free time the query went out. Waiting for the
    /// previous reply is not counted; it is the daemon's.
    #[must_use]
    pub fn generator_late(&self) -> Duration {
        self.sent.saturating_duration_since(self.due.max(self.free))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn lanes_interleave_at_the_global_rate() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 1000, 2);
        assert_eq!(s.due(0, 0), t0);
        assert_eq!(s.due(1, 0), t0 + ms(1));
        assert_eq!(s.due(0, 1), t0 + ms(2));
        assert_eq!(s.due(1, 3), t0 + ms(7));
        assert_eq!(s.seq(1, 3), 7);
        let one = Schedule::new(t0, 5000, 1);
        assert_eq!(one.due(0, 5000), t0 + Duration::from_secs(1));
    }

    #[test]
    fn on_time_query_has_no_generator_lateness() {
        let t0 = Instant::now();
        let t = Timing {
            due: t0 + ms(5),
            free: t0,
            sent: t0 + ms(5),
            replied: t0 + ms(6),
        };
        assert_eq!(t.generator_late(), Duration::ZERO);
        assert_eq!(t.latency(), ms(1));
        assert_eq!(t.round_trip(), ms(1));
    }

    #[test]
    fn waiting_for_a_slow_reply_is_charged_to_the_daemon() {
        // Due at 5 ms, but the previous reply only arrived at 40 ms and
        // the query went out right then: 35 ms of latency the daemon
        // caused, none the generator did.
        let t0 = Instant::now();
        let t = Timing {
            due: t0 + ms(5),
            free: t0 + ms(40),
            sent: t0 + ms(40),
            replied: t0 + ms(41),
        };
        assert_eq!(t.generator_late(), Duration::ZERO);
        assert_eq!(t.latency(), ms(36));
        assert_eq!(t.round_trip(), ms(1));
    }

    #[test]
    fn oversleeping_is_charged_to_the_generator() {
        let t0 = Instant::now();
        let t = Timing {
            due: t0 + ms(5),
            free: t0,
            sent: t0 + ms(8),
            replied: t0 + ms(9),
        };
        assert_eq!(t.generator_late(), ms(3));
        assert_eq!(t.latency(), ms(1));
        // Slow to send after a late reply: only the part after the reply.
        let t = Timing {
            due: t0 + ms(5),
            free: t0 + ms(20),
            sent: t0 + ms(22),
            replied: t0 + ms(23),
        };
        assert_eq!(t.generator_late(), ms(2));
        assert_eq!(t.latency(), ms(16));
    }
}
