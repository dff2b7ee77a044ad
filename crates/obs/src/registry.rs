//! Named metrics: monotonic counters, gauges, log-bucketed histograms.

use std::collections::BTreeMap;

/// Sub-bucket resolution: 2^3 = 8 linear sub-buckets per octave, so
/// any bucket's width is at most 1/8 of its lower bound — ≤ 12.5%
/// relative quantile error, HDR-histogram style.
const SUB_BITS: u32 = 3;
const SUBS: u64 = 1 << SUB_BITS;

/// Buckets: values `0..SUBS` get exact unit buckets, then 8 per
/// octave for the remaining `64 - SUB_BITS` octaves of a `u64`.
const NUM_BUCKETS: usize = SUBS as usize + ((64 - SUB_BITS as usize) * SUBS as usize);

/// A fixed-shape log-bucketed histogram of `u64` samples.
///
/// Recording is O(1) and allocation-free after construction; the
/// bucket layout is value-independent, so histograms recorded by
/// different components merge exactly. Quantiles come back as the
/// lower bound of the covering bucket (within one bucket of the true
/// order statistic, i.e. ≤ 12.5% relative error), clamped to the
/// observed `[min, max]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Index of the bucket covering `v`. Exposed so tests can assert
    /// "within one bucket" agreement against exact order statistics.
    pub fn bucket_index(v: u64) -> usize {
        if v < SUBS {
            return v as usize;
        }
        let octave = 63 - v.leading_zeros() as u64; // >= SUB_BITS here
        let sub = (v >> (octave - SUB_BITS as u64)) & (SUBS - 1);
        (SUBS + (octave - SUB_BITS as u64) * SUBS + sub) as usize
    }

    /// Lower bound of bucket `idx` (the value quantiles report).
    pub fn bucket_floor(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < SUBS {
            return idx;
        }
        let rel = idx - SUBS;
        let octave = rel / SUBS + SUB_BITS as u64;
        let sub = rel % SUBS;
        (SUBS + sub) << (octave - SUB_BITS as u64)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.sum as f64 / self.count as f64)
    }

    /// The `q`-quantile (`0.0..=1.0`) as a bucket lower bound clamped
    /// to `[min, max]`; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the order statistic we want, 1-based: ceil(q * n),
        // at least 1 so q = 0 reports the minimum.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(Self::bucket_floor(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Folds `other` into `self` (exact: the layouts are identical).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The workspace's one home for named metrics.
///
/// Components expose a `fill_metrics(&self, &mut MetricRegistry)`
/// hook that publishes their cumulative counters under stable names;
/// the registry itself is dumb storage plus rendering. Counters are
/// **set**, not added, by those hooks: every engine counter is already
/// cumulative over the engine's lifetime (and survives `EngineState`
/// export/restore), so repeated fills are idempotent and snapshot-safe.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> MetricRegistry {
        MetricRegistry::default()
    }

    /// Sets monotonic counter `name` to the cumulative value `v`.
    pub fn counter_set(&mut self, name: &str, v: u64) {
        self.counters.insert(name.to_string(), v);
    }

    /// Adds `v` to counter `name` (creating it at zero).
    pub fn counter_add(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Reads counter `name` (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `v`.
    pub fn gauge_set(&mut self, name: &str, v: i64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Reads gauge `name` (`None` when absent).
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Records `v` into histogram `name` (creating it empty).
    pub fn observe(&mut self, name: &str, v: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(v);
    }

    /// Folds a pre-built histogram into histogram `name`.
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(h);
    }

    /// Reads histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Prometheus-style text exposition: counters and gauges as
    /// single samples, histograms as summaries with `quantile`
    /// labels plus `_sum`/`_count` series.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
                let v = h.quantile(q).unwrap_or(0);
                out.push_str(&format!("{name}{{quantile=\"{label}\"}} {v}\n"));
            }
            out.push_str(&format!("{name}_sum {}\n", h.sum()));
            out.push_str(&format!("{name}_count {}\n", h.count()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_floor_inverts_bucket_index() {
        for idx in 0..NUM_BUCKETS {
            let floor = Histogram::bucket_floor(idx);
            if floor == u64::MAX {
                continue;
            }
            assert_eq!(
                Histogram::bucket_index(floor),
                idx,
                "floor {floor} of bucket {idx} maps back"
            );
        }
    }

    #[test]
    fn small_values_are_exact_and_large_values_bounded() {
        for v in 0..SUBS {
            assert_eq!(Histogram::bucket_index(v), v as usize);
            assert_eq!(Histogram::bucket_floor(v as usize), v);
        }
        // Relative error bound: floor <= v and v - floor < floor / SUBS * 2
        // (bucket width is floor/8 within an octave).
        for &v in &[
            100u64,
            1_000,
            12_345,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX / 3,
        ] {
            let floor = Histogram::bucket_floor(Histogram::bucket_index(v));
            assert!(floor <= v);
            let width = floor / SUBS;
            assert!(v - floor <= width, "v={v} floor={floor} width={width}");
        }
    }

    #[test]
    fn quantiles_track_exact_order_statistics_within_a_bucket() {
        let mut h = Histogram::new();
        let mut vals: Vec<u64> = (0..1000u64).map(|i| (i * i) % 70_000 + 3).collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
            let exact = vals[rank - 1];
            let approx = h.quantile(q).unwrap();
            let diff = Histogram::bucket_index(exact).abs_diff(Histogram::bucket_index(approx));
            assert!(diff <= 1, "q={q}: exact {exact} vs approx {approx}");
        }
        assert_eq!(h.min(), Some(*vals.first().unwrap()));
        assert_eq!(h.max(), Some(*vals.last().unwrap()));
        assert_eq!(h.count(), 1000);
    }

    /// The histogram p99 must agree with the exact (sorted-Vec) p99 to
    /// within one log bucket on a latency-shaped fixture — the
    /// acceptance bar for estimating slice latencies with it.
    #[test]
    fn histogram_p99_matches_sorted_p99_within_one_bucket() {
        // Deterministic heavy-tailed fixture: an xorshift stream shaped
        // like slice latencies (a dense body plus a sparse 100× tail).
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut samples: Vec<u64> = (0..10_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let body = 2_000 + state % 30_000;
                if state.is_multiple_of(97) {
                    body * 100
                } else {
                    body
                }
            })
            .collect();
        let mut hist = Histogram::new();
        for &s in &samples {
            hist.record(s);
        }
        samples.sort_unstable();
        let exact = samples[(samples.len().saturating_sub(1)) * 99 / 100];
        let est = hist.quantile(0.99).expect("non-empty histogram");
        // Same bucket or the one next door: the estimate's bucket floor
        // must bracket the exact order statistic within one bucket
        // width in either direction.
        let lo = Histogram::bucket_index(est).saturating_sub(1);
        let hi = Histogram::bucket_index(est) + 1;
        let exact_bucket = Histogram::bucket_index(exact);
        assert!(
            (lo..=hi).contains(&exact_bucket),
            "p99 estimate {est} (bucket {}) vs exact {exact} (bucket {exact_bucket})",
            Histogram::bucket_index(est),
        );
    }

    #[test]
    fn merge_equals_recording_the_union() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for i in 0..500u64 {
            let v = i * 37 % 9999;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn registry_counters_gauges_histograms_roundtrip() {
        let mut reg = MetricRegistry::new();
        reg.counter_set("engine_steps_total", 42);
        reg.counter_add("engine_steps_total", 0);
        reg.counter_add("scans_total", 7);
        reg.gauge_set("injected_net", -5);
        for v in [10u64, 20, 30] {
            reg.observe("latency_ns", v);
        }
        assert_eq!(reg.counter("engine_steps_total"), 42);
        assert_eq!(reg.counter("scans_total"), 7);
        assert_eq!(reg.counter("absent"), 0);
        assert_eq!(reg.gauge("injected_net"), Some(-5));
        assert_eq!(reg.histogram("latency_ns").unwrap().count(), 3);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE engine_steps_total counter"));
        assert!(text.contains("engine_steps_total 42"));
        assert!(text.contains("# TYPE injected_net gauge"));
        assert!(text.contains("injected_net -5"));
        assert!(text.contains("latency_ns{quantile=\"0.99\"}"));
        assert!(text.contains("latency_ns_count 3"));
    }

    #[test]
    fn counter_set_is_idempotent_for_snapshot_refills() {
        // The fill_metrics discipline: cumulative values are *set*,
        // so filling twice (e.g. before and after a snapshot restore)
        // cannot double-count.
        let mut reg = MetricRegistry::new();
        reg.counter_set("x_total", 10);
        reg.counter_set("x_total", 10);
        assert_eq!(reg.counter("x_total"), 10);
    }
}
