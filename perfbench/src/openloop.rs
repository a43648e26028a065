//! Open-loop schedule arithmetic.
//!
//! The open-loop generator offers key frames at a fixed rate whatever the
//! system does: the item that brings the cumulative count to `n` key
//! frames is due at `n_before / rate` seconds after the phase starts. A
//! detection's latency runs from the *due* time of the chunk that carried
//! the last key frame of the matched span, so a stall in the generator
//! (or a slow reply it waited for) counts against every item it delayed
//! instead of silently lowering the offered load.

use crate::stats::Samples;

#[derive(Debug)]
pub struct OpenLoop {
    rate_kfps: f64,
    kf_sent: u64,
    /// How late each item was sent, in seconds.
    pub late_s: Samples,
}

impl OpenLoop {
    pub fn new(rate_kfps: f64) -> OpenLoop {
        assert!(rate_kfps > 0.0);
        OpenLoop {
            rate_kfps,
            kf_sent: 0,
            late_s: Samples::new(),
        }
    }

    /// Due time of the next item, seconds from the phase start.
    pub fn next_due_s(&self) -> f64 {
        self.kf_sent as f64 / self.rate_kfps
    }

    /// Record that the next item, carrying `keyframes` key frames, was
    /// sent at `now_s`; returns its due time.
    pub fn sent(&mut self, now_s: f64, keyframes: u64) -> f64 {
        let due = self.next_due_s();
        self.late_s.push((now_s - due).max(0.0));
        self.kf_sent += keyframes;
        due
    }

    pub fn offered_kfps(&self) -> f64 {
        self.rate_kfps
    }

    /// Key frames actually sent per second of the phase so far.
    pub fn achieved_kfps(&self, now_s: f64) -> f64 {
        if now_s <= 0.0 {
            return 0.0;
        }
        self.kf_sent as f64 / now_s
    }
}

/// Latency of a reply to an item due at `due_s`, received at `recv_s`.
pub fn latency_from_due(due_s: f64, recv_s: f64) -> f64 {
    recv_s - due_s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a simulated generator over a system that answers instantly:
    /// ten key frames per item at 1000 kf/s (one item due every 10 ms),
    /// with a 50 ms stall injected just before item 5.
    fn simulate(stall_before: usize, stall_s: f64) -> (Vec<f64>, Vec<f64>, OpenLoop) {
        let mut ol = OpenLoop::new(1000.0);
        let mut clock = 0.0f64;
        let mut from_due = Vec::new();
        let mut from_send = Vec::new();
        for i in 0..12 {
            if i == stall_before {
                clock += stall_s;
            }
            // Wait for the due time unless already late.
            clock = clock.max(ol.next_due_s());
            let due = ol.sent(clock, 10);
            let recv = clock; // instant reply
            from_due.push(latency_from_due(due, recv));
            from_send.push(recv - clock);
        }
        (from_due, from_send, ol)
    }

    #[test]
    fn stall_counts_against_every_delayed_item() {
        let (from_due, from_send, ol) = simulate(5, 0.050);
        let ms: Vec<i64> = from_due
            .iter()
            .map(|s| (s * 1000.0).round() as i64)
            .collect();
        // Items before the stall are on time. The stall starts when item 4
        // goes out at 40 ms and ends at 90 ms, so item 5 (due at 50 ms) is
        // 40 ms late; the generator then sends back to back, each later
        // item 10 ms less late, until it has caught up.
        assert_eq!(ms, vec![0, 0, 0, 0, 0, 40, 30, 20, 10, 0, 0, 0]);
        // Timing from the send instead hides the stall entirely.
        assert!(from_send.iter().all(|&l| l == 0.0));
        assert!((ol.achieved_kfps(0.120) - 1000.0).abs() < 1e-9);
        let mut late = ol.late_s;
        assert_eq!(late.len(), 12);
        assert!((late.pct(100.0).unwrap() - 0.040).abs() < 1e-12);
    }

    #[test]
    fn due_times_follow_the_offered_rate() {
        let mut ol = OpenLoop::new(250.0);
        assert_eq!(ol.next_due_s(), 0.0);
        assert_eq!(ol.sent(0.0, 5), 0.0);
        assert_eq!(ol.next_due_s(), 0.02);
        // An item carrying no complete key frame shares the next due time.
        assert_eq!(ol.sent(0.02, 0), 0.02);
        assert_eq!(ol.sent(0.021, 5), 0.02);
        assert_eq!(ol.next_due_s(), 0.04);
        assert!((ol.achieved_kfps(0.04) - 250.0).abs() < 1e-9);
        assert_eq!(ol.offered_kfps(), 250.0);
    }
}
