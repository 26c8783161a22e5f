//! Metric collection and the result line.

use std::fmt::Write;
use std::sync::{Arc, Mutex};

/// Named metrics with units, in emission order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        // A non-finite value would make the result line invalid JSON.
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.put(name, value as f64, "count");
    }

    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.0
    }
}

/// Harness-level operations attempted and failed: every output check,
/// repro verification, oracle comparison and backend call that can fail.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Count one check; a false `ok` counts as a failure and is reported
    /// on stderr so a failed run says why.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Count `n` operations of which `failed` failed.
    pub fn many(&mut self, n: u64, failed: u64, what: &str) {
        self.attempted += n;
        self.failed += failed;
        if failed > 0 {
            eprintln!("check failed: {failed} of {n} {what}");
        }
    }
}

/// The last line of standard output.
pub fn result_line(ops: Ops, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ops.failed == 0,
        ops.attempted.max(1),
        ops.failed
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(s, "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
            .expect("writing to a String cannot fail");
    }
    s.push_str("}}");
    s
}

/// One timed iteration's end-to-end numbers.
pub struct Sample {
    pub wall_s: f64,
    pub study_s: f64,
    pub triage_s: f64,
    /// Records (or statements) the iteration resolved.
    pub records: u64,
    /// Deterministic counters: equal on every iteration and every run of
    /// a seed.
    pub counters: Vec<(&'static str, u64)>,
}

/// Run `iteration` for `p.seconds` (at least `p.min_iters` times) and
/// report the medians as the end-to-end metrics. The first iteration's
/// counters are printed on their own line, so two runs of one seed can be
/// compared exactly; later iterations must repeat them.
pub fn measure(
    p: &crate::Params,
    setup_s: f64,
    ops: &mut Ops,
    mut iteration: impl FnMut(&mut Ops) -> Sample,
) -> Metrics {
    let mut samples: Vec<Sample> = Vec::new();
    let timed = std::time::Instant::now();
    while samples.len() < p.min_iters || timed.elapsed().as_secs_f64() < p.seconds {
        let s = iteration(ops);
        match samples.first() {
            None => {
                let body: Vec<String> =
                    s.counters.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
                println!("perfbench counters: {{{}}}", body.join(", "));
            }
            Some(first) => ops.check(
                first.counters == s.counters,
                "deterministic counters changed between iterations",
            ),
        }
        samples.push(s);
    }
    let of = |f: fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let walls: Vec<f64> = samples.iter().map(|s| s.wall_s).collect();
    eprintln!("{} timed iterations; wall_s {walls:?}", samples.len());
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("wall_s", of(|s| s.wall_s), "s");
    m.put("study_s", of(|s| s.study_s), "s");
    m.put("triage_s", of(|s| s.triage_s), "s");
    m.put("records_per_s", of(|s| s.records as f64 / s.wall_s), "1/s");
    m.put("peak_rss_mb", peak_rss_mb(), "MiB");
    m
}

fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in [0, 1]) of a sample; 0 when empty.
pub fn percentile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MiB, from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, b| (h ^ *b as u64).wrapping_mul(0x100_0000_01b3))
}

/// FNV-1a over bytes: a stable digest for comparing reports and logs.
pub fn digest(bytes: &[u8]) -> u64 {
    fnv(FNV_OFFSET, bytes)
}

/// A `Write` sink that keeps only the running [`digest`] of what was
/// written, so an event log can be checked without holding it in memory.
#[derive(Clone)]
pub struct DigestWriter(Arc<Mutex<u64>>);

impl DigestWriter {
    pub fn new() -> DigestWriter {
        DigestWriter(Arc::new(Mutex::new(FNV_OFFSET)))
    }

    pub fn digest(&self) -> u64 {
        *self.0.lock().expect("digest writer poisoned")
    }
}

impl std::io::Write for DigestWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut h = self.0.lock().expect("digest writer poisoned");
        *h = fnv(*h, buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_well_formed() {
        let mut m = Metrics::default();
        m.put("wall_s", 1.25, "s");
        m.count("n", 3);
        let mut ops = Ops::default();
        ops.check(true, "x");
        assert_eq!(
            result_line(ops, &m),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"wall_s\": \
             {\"value\": 1.25, \"unit\": \"s\"}, \"n\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn digest_writer_matches_digest() {
        let mut w = DigestWriter::new();
        std::io::Write::write_all(&mut w, b"ab").unwrap();
        std::io::Write::write_all(&mut w, b"c\n").unwrap();
        assert_eq!(w.digest(), digest(b"abc\n"));
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
    }
}
