//! Recall and precision against the planted ground truth.

use crate::gen::Airing;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Score {
    pub detections: u64,
    pub correct: u64,
    pub planted: u64,
    pub found: u64,
}

impl Score {
    /// Score one pass over one stream: `dets` are `(query, position)`
    /// pairs with positions relative to the start of the pass.
    pub fn add_pass(&mut self, airings: &[Airing], dets: &[(u32, u64)], w_frames: u64) {
        let mut found = vec![false; airings.len()];
        for &(query, p) in dets {
            let mut ok = false;
            for (a, f) in airings.iter().zip(&mut found) {
                if a.query == query && a.accepts(p, w_frames) {
                    ok = true;
                    *f = true;
                }
            }
            self.correct += u64::from(ok);
        }
        self.detections += dets.len() as u64;
        self.planted += airings.len() as u64;
        self.found += found.iter().filter(|&&f| f).count() as u64;
    }

    pub fn precision(&self) -> f64 {
        if self.detections == 0 {
            0.0
        } else {
            self.correct as f64 / self.detections as f64
        }
    }

    pub fn recall(&self) -> f64 {
        if self.planted == 0 {
            0.0
        } else {
            self.found as f64 / self.planted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_rule_and_counts() {
        let airings = [
            Airing {
                query: 1,
                start: 100,
                end: 200,
            },
            Airing {
                query: 2,
                start: 300,
                end: 340,
            },
        ];
        let mut s = Score::default();
        // w = 10: query 1 accepts 110..=209.
        s.add_pass(&airings, &[(1, 110), (1, 209), (1, 210), (2, 150)], 10);
        assert_eq!(
            s,
            Score {
                detections: 4,
                correct: 2,
                planted: 2,
                found: 1
            }
        );
        assert_eq!(s.precision(), 0.5);
        assert_eq!(s.recall(), 0.5);
        s.add_pass(&airings, &[(2, 349)], 10);
        assert_eq!(
            s,
            Score {
                detections: 5,
                correct: 3,
                planted: 4,
                found: 2
            }
        );
        assert_eq!(Score::default().precision(), 0.0);
    }
}
