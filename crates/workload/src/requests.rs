//! Client request-load generation.
//!
//! The paper drives its servers with httperf 0.8 at fixed request rates
//! (Figures 6–8) and with a "bursty clients requests pattern" for the
//! adaptation experiment (Figure 9). Requests here are *initial-state*
//! requests — the dominant, expensive kind (thin-client recovery). The
//! generator is open-loop: arrival times are fixed in advance, exactly like
//! httperf's constant-rate mode, so an overloaded server accumulates
//! backlog instead of silently throttling the load.

use crate::rng::Rng;

/// One client request arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Arrival time (µs).
    pub at_us: u64,
    /// Request id (unique per schedule).
    pub id: u64,
}

/// The shape of the request arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RequestPattern {
    /// No client requests.
    None,
    /// httperf-style constant rate.
    Constant {
        /// Requests per second.
        rate: f64,
    },
    /// On/off bursts: `base` req/s normally, `peak` req/s during bursts of
    /// `burst_us` every `period_us` (§4.3's bursty pattern).
    Bursty {
        /// Background rate (req/s).
        base: f64,
        /// Rate during a burst (req/s).
        peak: f64,
        /// Burst duration (µs).
        burst_us: u64,
        /// Burst period (µs).
        period_us: u64,
    },
    /// A recovery storm: `count` simultaneous initializations (an airport
    /// terminal powering back up) spread over `spread_us` starting at `at_us`.
    RecoveryStorm {
        /// Storm start (µs).
        at_us: u64,
        /// Number of thin clients re-initializing.
        count: u32,
        /// Arrival spread (µs).
        spread_us: u64,
    },
}

/// A generated request schedule.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestSchedule {
    /// Arrivals in non-decreasing time order.
    pub requests: Vec<Request>,
}

impl RequestSchedule {
    /// Generate the schedule for `pattern` over `[0, horizon_us)`.
    pub fn generate(pattern: RequestPattern, horizon_us: u64, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        let mut requests = Vec::new();
        let mut id = 0u64;
        let push = |requests: &mut Vec<Request>, id: &mut u64, at_us: u64| {
            *id += 1;
            requests.push(Request { at_us, id: *id });
        };
        match pattern {
            RequestPattern::None => {}
            RequestPattern::Constant { rate } => {
                assert!(rate.is_finite() && rate >= 0.0, "rate must be finite and non-negative");
                if rate > 0.0 {
                    let inter = 1_000_000.0 / rate;
                    let mut t = 0.0;
                    while (t as u64) < horizon_us {
                        // Small deterministic jitter keeps arrivals aperiodic.
                        t += inter * rng.gen_range(0.8..1.2);
                        if (t as u64) < horizon_us {
                            push(&mut requests, &mut id, t as u64);
                        }
                    }
                }
            }
            RequestPattern::Bursty { base, peak, burst_us, period_us } => {
                assert!(period_us > 0 && burst_us <= period_us, "burst must fit in period");
                assert!(
                    base.is_finite() && peak.is_finite() && base >= 0.0 && peak >= 0.0,
                    "rates must be finite and non-negative"
                );
                let mut t = 0.0f64;
                loop {
                    let now = t as u64;
                    if now >= horizon_us {
                        break;
                    }
                    let phase = now % period_us;
                    let in_burst = phase < burst_us;
                    let rate = if in_burst { peak } else { base };
                    let phase_end = now - phase + if in_burst { burst_us } else { period_us };
                    if rate <= 0.0 {
                        t = phase_end as f64;
                        continue;
                    }
                    t += (1_000_000.0 / rate) * rng.gen_range(0.8..1.2);
                    if t as u64 >= phase_end {
                        // The next arrival would fall in a different-rate
                        // phase: re-evaluate from the boundary instead of
                        // leaking this phase's rate across it.
                        t = phase_end as f64;
                        continue;
                    }
                    if (t as u64) < horizon_us {
                        push(&mut requests, &mut id, t as u64);
                    }
                }
            }
            RequestPattern::RecoveryStorm { at_us, count, spread_us } => {
                for _ in 0..count {
                    let t = at_us + rng.gen_range(0..=spread_us);
                    push(&mut requests, &mut id, t);
                }
                requests.sort_by_key(|r| r.at_us);
            }
        }
        RequestSchedule { requests }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Partition arrivals round-robin across `n` sites (the paper's
    /// "request load evenly distributed across mirror sites").
    pub fn balance_across(&self, n: usize) -> Vec<Vec<Request>> {
        assert!(n > 0);
        let mut out = vec![Vec::new(); n];
        for (i, r) in self.requests.iter().enumerate() {
            out[i % n].push(*r);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rate_hits_target_count() {
        let s = RequestSchedule::generate(RequestPattern::Constant { rate: 100.0 }, 10_000_000, 1);
        // 100 req/s over 10s ≈ 1000 (±jitter).
        assert!((900..=1100).contains(&s.len()), "{}", s.len());
        for w in s.requests.windows(2) {
            assert!(w[0].at_us <= w[1].at_us);
        }
    }

    #[test]
    fn zero_rate_and_none_are_empty() {
        assert!(RequestSchedule::generate(RequestPattern::Constant { rate: 0.0 }, 1_000_000, 1)
            .is_empty());
        assert!(RequestSchedule::generate(RequestPattern::None, 1_000_000, 1).is_empty());
    }

    #[test]
    fn bursty_pattern_concentrates_arrivals() {
        let s = RequestSchedule::generate(
            RequestPattern::Bursty {
                base: 10.0,
                peak: 400.0,
                burst_us: 1_000_000,
                period_us: 5_000_000,
            },
            15_000_000,
            42,
        );
        let in_burst = s.requests.iter().filter(|r| r.at_us % 5_000_000 < 1_000_000).count();
        let off_burst = s.len() - in_burst;
        assert!(in_burst > 3 * off_burst, "bursts must dominate: {in_burst} vs {off_burst}");
    }

    #[test]
    fn bursty_with_zero_base_still_bursts() {
        let s = RequestSchedule::generate(
            RequestPattern::Bursty {
                base: 0.0,
                peak: 100.0,
                burst_us: 500_000,
                period_us: 2_000_000,
            },
            8_000_000,
            7,
        );
        assert!(!s.is_empty());
        assert!(s.requests.iter().all(|r| r.at_us % 2_000_000 < 500_000));
    }

    #[test]
    fn recovery_storm_is_tight_and_complete() {
        let s = RequestSchedule::generate(
            RequestPattern::RecoveryStorm { at_us: 5_000_000, count: 250, spread_us: 100_000 },
            20_000_000,
            9,
        );
        assert_eq!(s.len(), 250);
        assert!(s.requests.iter().all(|r| (5_000_000..=5_100_000).contains(&r.at_us)));
    }

    #[test]
    fn balance_across_distributes_evenly() {
        let s = RequestSchedule::generate(RequestPattern::Constant { rate: 100.0 }, 4_000_000, 3);
        let parts = s.balance_across(4);
        let sizes: Vec<usize> = parts.iter().map(|p| p.len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "{sizes:?}");
        let total: usize = sizes.iter().sum();
        assert_eq!(total, s.len());
    }

    #[test]
    fn deterministic_given_seed() {
        let p = RequestPattern::Constant { rate: 50.0 };
        assert_eq!(
            RequestSchedule::generate(p, 1_000_000, 5),
            RequestSchedule::generate(p, 1_000_000, 5)
        );
    }
}
