//! The service's telemetry surface: pre-resolved metric handles for
//! the hot layers, built over [`tc_telemetry`]'s lock-free primitives.
//!
//! [`ServiceMetrics`] holds everything `tcr serve` tracks: connection
//! and session counts, ingested events, per-wire-kind message counters
//! and batch-size histograms, wire-level error counters, queue-depth
//! high-water, worker drain/steal counts, reply-latency histograms,
//! per-connection flow-control counters, and detector memory gauges.
//! One instance per server, shared by the readers and every worker.

use std::sync::Arc;

use tc_telemetry::{labeled, Counter, Gauge, Histogram, Registry};

/// Every metric the streaming service records, as pre-resolved handles
/// — the hot path never does a name lookup. Counters and gauges are
/// shared cells; the histograms here are shared by every reader,
/// workers register their own per-worker shards (merged at scrape).
pub struct ServiceMetrics {
    registry: Registry,
    /// Worker-pool size (the `workers=` stats field).
    pub(crate) workers: usize,
    /// Set at scrape time from the registry's epoch.
    pub(crate) uptime_ms: Gauge,
    pub(crate) conns_accepted: Counter,
    pub(crate) conns_active: Gauge,
    pub(crate) sessions_opened: Counter,
    /// Events accepted by detectors (delta-accumulated per work item,
    /// so a scrape matches the sum of live sessions' `stats`).
    pub(crate) events: Counter,
    pub(crate) rejected: Counter,
    pub(crate) races: Counter,
    pub(crate) msgs_text: Counter,
    pub(crate) msgs_multi: Counter,
    pub(crate) batch_text: Histogram,
    pub(crate) batch_multi: Histogram,
    pub(crate) wire_err_corrupt: Counter,
    pub(crate) wire_err_oversize: Counter,
    pub(crate) wire_err_unknown_session: Counter,
    pub(crate) wire_err_line_overflow: Counter,
    /// Rejected `auth` attempts and auth-gated commands refused
    /// without a prior successful `auth`.
    pub(crate) wire_err_auth: Counter,
    pub(crate) wire_errors_total: Counter,
    pub(crate) queue_depth_high_water: Gauge,
    /// Connections cut because a reply write failed or timed out.
    pub(crate) conns_severed: Counter,
    /// Times a reader stopped reading because its connection had more
    /// than the bound of decoded events queued.
    pub(crate) reads_paused: Counter,
    /// The most decoded events one connection had queued at once.
    pub(crate) conn_queued_high_water: Gauge,
    pub(crate) peak_clock_bytes: Gauge,
    pub(crate) live_threads_high_water: Gauge,
    pub(crate) pool_bytes: Gauge,
}

impl ServiceMetrics {
    /// Builds the service bundle over `registry` for a pool of
    /// `workers` workers.
    pub fn new(registry: Registry, workers: usize) -> ServiceMetrics {
        let workers_gauge = registry.gauge("tc_workers");
        workers_gauge.set(workers as u64);
        ServiceMetrics {
            workers,
            uptime_ms: registry.gauge("tc_uptime_ms"),
            conns_accepted: registry.counter("tc_connections_accepted_total"),
            conns_active: registry.gauge("tc_connections_active"),
            sessions_opened: registry.counter("tc_sessions_opened_total"),
            events: registry.counter("tc_events_total"),
            rejected: registry.counter("tc_rejected_total"),
            races: registry.counter("tc_races_total"),
            msgs_text: registry.counter(&labeled("tc_messages_total", &[("wire", "text")])),
            msgs_multi: registry.counter(&labeled("tc_messages_total", &[("wire", "multi")])),
            batch_text: registry.histogram(&labeled("tc_batch_events", &[("wire", "text")])),
            batch_multi: registry.histogram(&labeled("tc_batch_events", &[("wire", "multi")])),
            wire_err_corrupt: registry
                .counter(&labeled("tc_wire_errors_total", &[("kind", "corrupt")])),
            wire_err_oversize: registry
                .counter(&labeled("tc_wire_errors_total", &[("kind", "oversize")])),
            wire_err_unknown_session: registry.counter(&labeled(
                "tc_wire_errors_total",
                &[("kind", "unknown_session")],
            )),
            wire_err_line_overflow: registry.counter(&labeled(
                "tc_wire_errors_total",
                &[("kind", "line_overflow")],
            )),
            wire_err_auth: registry.counter(&labeled("tc_wire_errors_total", &[("kind", "auth")])),
            wire_errors_total: registry.counter("tc_wire_errors"),
            queue_depth_high_water: registry.gauge("tc_queue_depth_high_water"),
            conns_severed: registry.counter("tc_conn_severed_total"),
            reads_paused: registry.counter("tc_read_paused_total"),
            conn_queued_high_water: registry.gauge("tc_conn_queued_events_high_water"),
            peak_clock_bytes: registry.gauge("tc_peak_clock_bytes"),
            live_threads_high_water: registry.gauge("tc_live_threads_high_water"),
            pool_bytes: registry.gauge("tc_pool_bytes"),
            registry,
        }
    }

    /// The backing registry (scrapes, per-worker shard registration).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Renders the Prometheus-style exposition the `metrics` protocol
    /// command replies with, refreshing the uptime gauge first.
    pub fn render_prometheus(&self) -> String {
        self.uptime_ms
            .set(self.registry.uptime().as_millis() as u64);
        self.registry.render_prometheus()
    }

    /// The server-scope fields appended to every per-session `stats`
    /// reply, so a scrape is self-describing (uptime, connection
    /// counts, pool size, wire errors).
    pub(crate) fn stats_suffix(&self) -> String {
        format!(
            " uptime_ms={} conns_accepted={} conns_active={} workers={} wire_errors={}",
            self.registry.uptime().as_millis(),
            self.conns_accepted.get(),
            self.conns_active.get(),
            self.workers,
            self.wire_errors_total.get(),
        )
    }
}

/// `ServiceMetrics` shared across the readers, the workers and the
/// sessions.
pub type SharedMetrics = Arc<ServiceMetrics>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_bundle_exposes_the_service_families() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServiceMetrics>();
        let m = ServiceMetrics::new(Registry::new(), 2);
        m.conns_accepted.inc();
        m.msgs_multi.inc();
        m.batch_multi.record(512);
        m.wire_err_oversize.inc();
        m.wire_errors_total.inc();
        let text = m.render_prometheus();
        assert!(text.contains("tc_connections_accepted_total 1\n"));
        assert!(text.contains("tc_messages_total{wire=\"multi\"} 1\n"));
        assert!(text.contains("tc_wire_errors_total{kind=\"oversize\"} 1\n"));
        assert!(text.contains("tc_workers 2\n"));
        assert!(text.ends_with("# EOF\n"));
        let suffix = m.stats_suffix();
        assert!(suffix.contains("conns_accepted=1"));
        assert!(suffix.contains("wire_errors=1"));
        assert!(suffix.contains("workers=2"));
    }
}
