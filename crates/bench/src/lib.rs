//! # mirror-bench — figure regeneration
//!
//! One binary per figure of the paper's evaluation (§4):
//!
//! | binary | paper figure | what it sweeps |
//! |---|---|---|
//! | `fig4` | Figure 4 | event size × {no, simple, selective} mirroring, 1 mirror site |
//! | `fig5` | Figure 5 | number of mirror sites (1–8) at constant event size |
//! | `fig6` | Figure 6 | event size × {1,2,4} mirrors under 100 req/s balanced load |
//! | `fig7` | Figure 7 | request rate × {simple, selective, selective+½ chkpt} |
//! | `fig8` | Figure 8 | request rate × {simple, selective}: mean update delay |
//! | `fig9` | Figure 9 | update-delay time series, bursty requests, adaptation on/off |
//! | `ablations` | (beyond paper) | coalesce depth, checkpoint interval, hysteresis, backup growth |
//!
//! Each binary prints the series the paper plots plus a shape check
//! (who wins, by what factor, where crossovers fall), and the [`sweep`]
//! module powers a compose-your-own-grid CSV runner (`--bin sweep`).
//!
//! Wall-clock measurement of the threaded stack lives in the repository's
//! `benchmark/` crate. The four scale-out binaries still here
//! (`edge_fanout`, `partition_scale`, `elastic_burst`, `wan_mirror`) stay
//! only until `benchmark/` has workloads for the regimes they cover.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sweep;

use mirror_workload::faa::FaaStreamConfig;

/// The standard experiment event sequence: 10 000 FAA position events over
/// 100 flights, nominally captured over ~4 s (the demo-replay stand-in).
pub fn paper_stream(event_size: usize) -> FaaStreamConfig {
    FaaStreamConfig {
        flights: 100,
        total_events: 10_000,
        events_per_sec: 2_500.0,
        event_size,
        seed: 0xFAA,
        first_flight: 0,
    }
}

/// A slower-paced variant for the delay experiments (Figures 8–9): same
/// sequence stretched so the server is *near* saturation rather than past
/// it, which is where queueing delays discriminate between policies.
pub fn paced_stream(event_size: usize, events_per_sec: f64, total_events: u64) -> FaaStreamConfig {
    FaaStreamConfig {
        flights: 100,
        total_events,
        events_per_sec,
        event_size,
        seed: 0xFAA,
        first_flight: 0,
    }
}

/// Render one table row with fixed-width columns.
pub fn row(cells: &[String]) -> String {
    cells.iter().map(|c| format!("{c:>12}")).collect::<Vec<_>>().join(" ")
}

/// Format seconds to two decimals.
pub fn secs(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a ratio as a signed percentage.
pub fn pct(ratio: f64) -> String {
    format!("{:+.1}%", (ratio - 1.0) * 100.0)
}

/// Print a titled table: header row + body rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    println!("{}", row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>()));
    for r in rows {
        println!("{}", row(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_stream_is_the_documented_sequence() {
        let s = paper_stream(1000);
        assert_eq!(s.total_events, 10_000);
        assert_eq!(s.flights, 100);
        assert_eq!(s.event_size, 1000);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(secs(1.234), "1.23");
        assert_eq!(pct(1.15), "+15.0%");
        assert_eq!(pct(0.9), "-10.0%");
        assert!(row(&["a".into(), "b".into()]).contains('a'));
    }
}
