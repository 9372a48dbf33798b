//! Telemetry's own cost, as an overhead A/B: the same single-session
//! binary ingest workload driven against a telemetry-on server and a
//! `NullRecorder` (telemetry-off) server. Best-of-`passes` events/sec
//! per configuration, so per-pass loopback noise does not masquerade
//! as tax. The budget the baseline enforces socially (not in
//! `validate`, which would make CI flaky): always-on telemetry stays
//! within ~2% of the null configuration.

use tc_stream::{ServeConfig, Server};

/// One telemetry-overhead A/B cell.
#[derive(Clone, Debug)]
pub struct TelemetryOverheadRecord {
    /// Events of the single-session binary ingest workload.
    pub events: u64,
    /// Best events/sec with telemetry on (the default configuration).
    pub on_events_per_sec: f64,
    /// Best events/sec against the `NullRecorder` configuration.
    pub off_events_per_sec: f64,
}

impl TelemetryOverheadRecord {
    /// Telemetry's tax as a percentage of the null configuration's
    /// rate. Negative when the telemetry-on run happened to be faster
    /// (the honest reading: the tax is below the noise floor).
    pub fn overhead_pct(&self) -> f64 {
        if self.off_events_per_sec <= 0.0 {
            return 0.0;
        }
        100.0 * (self.off_events_per_sec - self.on_events_per_sec) / self.off_events_per_sec
    }
}

/// Measures the overhead A/B: `passes` single-session binary ingest
/// runs against a telemetry-on and a telemetry-off server, keeping
/// each configuration's best rate. `progress` is called before each
/// pass.
pub fn collect_overhead(
    events: usize,
    passes: usize,
    mut progress: impl FnMut(&str),
) -> TelemetryOverheadRecord {
    let mut best = [0.0f64; 2];
    for (slot, telemetry) in [(0, true), (1, false)] {
        let server = Server::start(ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            telemetry,
            auth: None,
        })
        .expect("overhead bench server binds a free loopback port");
        let addr = server.local_addr();
        let label = if telemetry { "on" } else { "off" };
        for pass in 0..passes.max(1) {
            progress(&format!("telemetry/{label}/{pass}"));
            let record = crate::ingest::single_session(addr, events, true);
            best[slot] = best[slot].max(record.events_per_sec());
        }
        server.shutdown();
        server.join();
    }
    TelemetryOverheadRecord {
        events: events as u64,
        on_events_per_sec: best[0],
        off_events_per_sec: best[1],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_cell_measures_both_configurations() {
        let record = collect_overhead(2_000, 1, |_| {});
        assert_eq!(record.events, 2_000);
        assert!(record.on_events_per_sec > 0.0, "{record:?}");
        assert!(record.off_events_per_sec > 0.0, "{record:?}");
        assert!(record.overhead_pct().is_finite(), "{record:?}");
    }

    #[test]
    fn overhead_pct_reads_the_ab_rates() {
        let r = TelemetryOverheadRecord {
            events: 1,
            on_events_per_sec: 98.0,
            off_events_per_sec: 100.0,
        };
        assert!((r.overhead_pct() - 2.0).abs() < 1e-9);
        let faster = TelemetryOverheadRecord {
            on_events_per_sec: 102.0,
            ..r
        };
        assert!(faster.overhead_pct() < 0.0);
    }
}
