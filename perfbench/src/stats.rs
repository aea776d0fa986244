//! Percentiles and the result line.

/// Nearest-rank quantile of `v` (sorted in place); 0 when empty.
pub fn quantile(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

pub fn median(v: &mut [u64]) -> f64 {
    quantile(v, 0.5)
}

/// Which slice of a run stands for the run: co-tenants on a shared host
/// only ever slow a slice down, so the faster quartile of slices tracks
/// the program and not the neighbours.
pub const SLICE_RANK: f64 = 0.25;

/// The faster quartile over slices of each slice's `q` quantile (slices
/// with no samples skipped).
pub fn sliced(slices: &mut [Vec<u64>], q: f64) -> f64 {
    let per: Vec<f64> = slices
        .iter_mut()
        .filter(|s| !s.is_empty())
        .map(|s| quantile(s, q))
        .collect();
    rank_f64(&per, SLICE_RANK)
}

/// Nearest-rank quantile of floats.
pub fn rank_f64(v: &[f64], q: f64) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median_f64(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (0 where it is not a sample statistic).
    pub samples: usize,
}

pub fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
        samples,
    }
}

/// The final stdout line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}
