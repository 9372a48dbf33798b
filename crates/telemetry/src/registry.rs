//! The metric registry: named handles, per-worker histogram shards
//! merged at read time, and the Prometheus-style text scrape surface.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::metrics::{Counter, CounterCell, Gauge, GaugeCell, Histogram, HistogramSnapshot};

/// Quantiles every histogram reports on scrape.
const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")];

struct Inner {
    start: Instant,
    // Linear-scan vectors, not maps: registration happens a handful of
    // times at startup, scrapes are rare, and insertion order gives
    // the exposition a stable shape. The hot path never touches these
    // locks — it holds pre-resolved Arc handles.
    counters: Mutex<Vec<(String, Arc<CounterCell>)>>,
    gauges: Mutex<Vec<(String, Arc<GaugeCell>)>>,
    histograms: Mutex<Vec<(String, Arc<crate::metrics::HistogramCell>)>>,
}

/// A registry of named metrics.
///
/// Counters and gauges registered under the same name share one cell —
/// any thread may bump them (relaxed atomics tolerate the contention).
/// Histograms registered under the same name get a **fresh shard per
/// registration**: each worker records into private cache lines and
/// [`Registry::histogram_snapshot`] merges the shards at read time.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A live registry; its creation time anchors uptime.
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(Inner {
                start: Instant::now(),
                counters: Mutex::new(Vec::new()),
                gauges: Mutex::new(Vec::new()),
                histograms: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Time since the registry was created.
    pub fn uptime(&self) -> Duration {
        self.inner.start.elapsed()
    }

    /// The counter registered as `name`, creating it on first use.
    /// Same name → same cell.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self.inner.counters.lock().expect("registry lock poisoned");
        let cell = match counters.iter().find(|(n, _)| n == name) {
            Some((_, cell)) => cell.clone(),
            None => {
                let cell = Arc::new(CounterCell::default());
                counters.push((name.to_owned(), cell.clone()));
                cell
            }
        };
        Counter { cell: Some(cell) }
    }

    /// The gauge registered as `name`, creating it on first use. Same
    /// name → same cell.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut gauges = self.inner.gauges.lock().expect("registry lock poisoned");
        let cell = match gauges.iter().find(|(n, _)| n == name) {
            Some((_, cell)) => cell.clone(),
            None => {
                let cell = Arc::new(GaugeCell::default());
                gauges.push((name.to_owned(), cell.clone()));
                cell
            }
        };
        Gauge { cell: Some(cell) }
    }

    /// A **new shard** of the histogram named `name`. Each caller
    /// (typically each worker thread) records into its own shard;
    /// scrapes merge every shard registered under the name.
    pub fn histogram(&self, name: &str) -> Histogram {
        let cell = Arc::new(crate::metrics::HistogramCell::default());
        self.inner
            .histograms
            .lock()
            .expect("registry lock poisoned")
            .push((name.to_owned(), cell.clone()));
        Histogram { cell: Some(cell) }
    }

    /// The current value of counter `name` (0 if never registered).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .counters
            .lock()
            .expect("registry lock poisoned")
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, c)| c.get())
    }

    /// The current value of gauge `name` (0 if never registered).
    pub fn gauge_value(&self, name: &str) -> u64 {
        self.inner
            .gauges
            .lock()
            .expect("registry lock poisoned")
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, g)| g.get())
    }

    /// The merged snapshot of every shard registered under `name`
    /// (empty if none).
    pub fn histogram_snapshot(&self, name: &str) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::empty();
        for (n, cell) in self
            .inner
            .histograms
            .lock()
            .expect("registry lock poisoned")
            .iter()
        {
            if n == name {
                merged.merge(&cell.snapshot());
            }
        }
        merged
    }

    /// Prometheus-style text exposition: counters and gauges as single
    /// samples, histograms as summaries (`quantile="0.5|0.95|0.99"`
    /// series plus `_sum`/`_count`), each metric family preceded by a
    /// `# TYPE` line, the whole document terminated by `# EOF` so it
    /// can be streamed over the line protocol.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_type: Option<String> = None;
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            let base = base_name(name).to_owned();
            if last_type.as_deref() != Some(base.as_str()) {
                out.push_str(&format!("# TYPE {base} {kind}\n"));
                last_type = Some(base);
            }
        };

        let mut counters: Vec<(String, u64)> = self
            .inner
            .counters
            .lock()
            .expect("registry lock poisoned")
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect();
        counters.sort();
        for (name, value) in counters {
            type_line(&mut out, &name, "counter");
            out.push_str(&format!("{name} {value}\n"));
        }

        let mut gauges: Vec<(String, u64)> = self
            .inner
            .gauges
            .lock()
            .expect("registry lock poisoned")
            .iter()
            .map(|(n, g)| (n.clone(), g.get()))
            .collect();
        gauges.sort();
        for (name, value) in gauges {
            type_line(&mut out, &name, "gauge");
            out.push_str(&format!("{name} {value}\n"));
        }

        let mut names: Vec<String> = self
            .inner
            .histograms
            .lock()
            .expect("registry lock poisoned")
            .iter()
            .map(|(n, _)| n.clone())
            .collect();
        names.sort();
        names.dedup();
        for name in names {
            let snap = self.histogram_snapshot(&name);
            type_line(&mut out, &name, "summary");
            for (q, label) in QUANTILES {
                let series = with_label(&name, "quantile", label);
                out.push_str(&format!("{series} {}\n", snap.quantile(q)));
            }
            let (base, labels) = split_labels(&name);
            out.push_str(&format!("{base}_sum{labels} {}\n", snap.sum));
            out.push_str(&format!("{base}_count{labels} {}\n", snap.count));
        }
        out.push_str("# EOF\n");
        out
    }
}

/// Formats a metric name with label pairs:
/// `labeled("tc_frames_total", &[("wire", "text")])` →
/// `tc_frames_total{wire="text"}`.
pub fn labeled(base: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return base.to_owned();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{base}{{{}}}", body.join(","))
}

/// The metric family name: everything before the label block.
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Splits `base{labels}` into `("base", "{labels}")` (labels may be
/// empty).
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], &name[i..]),
        None => (name, ""),
    }
}

/// Adds one `key="value"` label to a possibly-already-labeled name.
fn with_label(name: &str, key: &str, value: &str) -> String {
    match name.strip_suffix('}') {
        Some(open) => format!("{open},{key}=\"{value}\"}}"),
        None => format!("{name}{{{key}=\"{value}\"}}"),
    }
}

/// Minimal label-value escaping (quotes and backslashes; metric names
/// and labels are ASCII identifiers in practice).
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_cells_by_name_histograms_shard() {
        let reg = Registry::new();
        let a = reg.counter("tc_x_total");
        let b = reg.counter("tc_x_total");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter_value("tc_x_total"), 3);

        let g1 = reg.gauge("tc_depth");
        let g2 = reg.gauge("tc_depth");
        g1.record_max(5);
        g2.record_max(3);
        assert_eq!(reg.gauge_value("tc_depth"), 5);

        // Two registrations, two shards — both visible after merge.
        let h1 = reg.histogram("tc_lat_us");
        let h2 = reg.histogram("tc_lat_us");
        h1.record(10);
        h2.record(10_000);
        let snap = reg.histogram_snapshot("tc_lat_us");
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum, 10_010);
    }

    #[test]
    fn prometheus_exposition_has_types_samples_and_eof() {
        let reg = Registry::new();
        reg.counter(&labeled("tc_frames_total", &[("wire", "text")]))
            .add(3);
        reg.counter(&labeled("tc_frames_total", &[("wire", "multi")]))
            .add(4);
        reg.gauge("tc_queue_high_water").record_max(7);
        let h = reg.histogram("tc_reply_us");
        h.record(100);
        h.record(200);

        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE tc_frames_total counter\n"));
        // One TYPE line covers both labeled series of the family.
        assert_eq!(text.matches("# TYPE tc_frames_total").count(), 1);
        assert!(text.contains("tc_frames_total{wire=\"text\"} 3\n"));
        assert!(text.contains("tc_frames_total{wire=\"multi\"} 4\n"));
        assert!(text.contains("# TYPE tc_queue_high_water gauge\n"));
        assert!(text.contains("tc_queue_high_water 7\n"));
        assert!(text.contains("# TYPE tc_reply_us summary\n"));
        assert!(text.contains("tc_reply_us{quantile=\"0.5\"} 127\n"));
        assert!(text.contains("tc_reply_us{quantile=\"0.99\"} 255\n"));
        assert!(text.contains("tc_reply_us_sum 300\n"));
        assert!(text.contains("tc_reply_us_count 2\n"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn labeled_histograms_merge_quantile_into_the_label_set() {
        let reg = Registry::new();
        reg.histogram(&labeled("tc_ingest_us", &[("wire", "multi")]))
            .record(50);
        let text = reg.render_prometheus();
        assert!(text.contains("tc_ingest_us{wire=\"multi\",quantile=\"0.5\"} 63\n"));
        assert!(text.contains("tc_ingest_us_sum{wire=\"multi\"} 50\n"));
        assert!(text.contains("tc_ingest_us_count{wire=\"multi\"} 1\n"));
    }

    #[test]
    fn labeled_formats_and_escapes() {
        assert_eq!(labeled("x", &[]), "x");
        assert_eq!(
            labeled("x", &[("a", "b"), ("c", "d")]),
            "x{a=\"b\",c=\"d\"}"
        );
        assert_eq!(labeled("x", &[("a", "q\"uo")]), "x{a=\"q\\\"uo\"}");
    }
}
