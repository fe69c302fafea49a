//! Metric lists, small statistics, and the result line.

/// End-to-end metrics (untraced runs): name, unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("messages_per_s", "1/s"),
    ("msg_p50_ms", "ms"),
    ("msg_p99_ms", "ms"),
    ("msg_p99_ticks", "ticks"),
    ("goodput_bits_per_symbol", "bits/symbol"),
    ("heap_peak_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (traced runs): name, unit. A layer a workload does
/// not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("client.us_per_msg", "us"),
    ("client.symbols_per_msg", "symbols"),
    ("transport.us_per_msg", "us"),
    ("transport.bytes_in_per_msg", "B"),
    ("transport.bytes_out_per_msg", "B"),
    ("wire.frames_in_per_msg", "frames"),
    ("wire.frames_out_per_msg", "frames"),
    ("wire.parse_ns_per_frame", "ns"),
    ("wire.encode_ns_per_frame", "ns"),
    ("server.us_per_msg", "us"),
    ("server.tick_p50_us", "us"),
    ("server.tick_p99_us", "us"),
    ("server.backpressure_ticks", "count"),
    ("server.egress_overflow", "count"),
    ("server.result_deferred", "count"),
    ("snapshot.restart_ms", "ms"),
    ("snapshot.image_kb", "KB"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.restore_ms", "ms"),
    ("snapshot.detached_entries", "count"),
    ("snapshot.live_sessions", "count"),
    ("snapshot.orphaned_sessions", "count"),
    ("pool.drive_us_per_msg", "us"),
    ("pool.attempts_per_msg", "count"),
    ("pool.checkpoint_kb_peak", "KB"),
    ("pool.demotions", "count"),
    ("decode.us_per_attempt", "us"),
    ("decode.nodes_expanded_per_msg", "count"),
    ("decode.hash_calls_per_msg", "count"),
    ("decode.frontier_peak", "count"),
    ("sim.us_per_attempt", "us"),
    ("sim.attempts_per_msg", "count"),
    ("sim.symbols_per_msg", "symbols"),
    ("loadgen.us_per_msg", "us"),
    ("trace.messages_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.replayed_msgs", "count"),
];

/// Named metric values gathered by a workload.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// A run's outcome.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Failed output checks.
    pub violations: Vec<String>,
}

impl Report {
    /// The result line: every metric of the list the run reports.
    pub fn json(&self, traced: bool) -> String {
        let list: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = list
            .iter()
            .map(|&(name, unit)| {
                let v = self.metrics.get(name).unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Nearest-rank quantile (`q` in (0, 1]); sorts `v`.
pub fn nearest_rank<T: Copy + PartialOrd + Default>(v: &mut [T], q: f64) -> T {
    if v.is_empty() {
        return T::default();
    }
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median (mean of the middle pair for even lengths); sorts `v`.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// AWGN capacity `log2(1 + SNR)` in bits per complex symbol.
pub fn capacity(snr_db: f64) -> f64 {
    (1.0 + 10f64.powf(snr_db / 10.0)).log2()
}
