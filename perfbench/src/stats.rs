//! Percentiles and per-phase counter snapshots.
//!
//! Percentiles are nearest-rank: the `q`-quantile of `n` sorted samples is
//! the sample at rank `⌈q·n⌉` (1-based). A timing reports its median and
//! one high percentile, and is flagged when fewer than ten samples lie
//! beyond that percentile, since one sample more or less then moves it.
//!
//! A [`Snapshot`] captures every `tasfar_obs::metrics` counter and
//! histogram plus the registry, backend, scratch and pool counters; the
//! difference of two snapshots taken around a phase is that phase's share.

use std::collections::BTreeMap;

use tasfar_nn::json::Json;
use tasfar_serve::RegistryStats;

/// The nearest-rank `q`-quantile of ascending `sorted` (`0 < q ≤ 1`).
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "nearest_rank: no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// A timing: sample count, median and one high percentile.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub n: usize,
    pub p50: f64,
    pub q: f64,
    pub high: f64,
}

impl Timing {
    /// Summarises `values` (any order) at the median and the `q`-quantile;
    /// `None` when there are no samples.
    pub fn of(values: &[f64], q: f64) -> Option<Timing> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Timing {
            n: v.len(),
            p50: nearest_rank(&v, 0.5),
            q,
            high: nearest_rank(&v, q),
        })
    }

    /// Fewer than ten samples lie beyond the high percentile.
    pub fn flagged(&self) -> bool {
        beyond(self.n, self.q) < 10
    }
}

/// The arithmetic mean, 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The median of `values` (nearest rank); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    Timing::of(values, 0.5).map_or(0.0, |t| t.p50)
}

/// One metric's value in a snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A counter or gauge.
    Scalar(f64),
    /// A histogram's sample count and sum.
    Hist { count: f64, sum: f64 },
}

/// Every counter the benchmark diffs around a phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub values: BTreeMap<String, Value>,
}

impl Snapshot {
    /// Reads the metrics registry and the layers' own counters now.
    pub fn take(registry: &RegistryStats) -> Snapshot {
        let mut s = Snapshot::from_metrics(&tasfar_obs::metrics::snapshot());
        let mut put = |k: &str, v: u64| {
            s.values.insert(k.to_string(), Value::Scalar(v as f64));
        };
        put("registry.evictions", registry.evictions);
        put("registry.rehydrations", registry.rehydrations);
        let b = tasfar_nn::backend::stats();
        put("backend.blocked_calls", b.blocked_calls);
        put("backend.naive_calls", b.naive_calls);
        let a = tasfar_nn::scratch::stats();
        put("scratch.checkouts", a.checkouts);
        put("scratch.reuses", a.reuses);
        let p = tasfar_nn::parallel::pool_stats();
        put("pool.chunks_total", p.chunks_total);
        put("pool.inline_regions", p.inline_regions);
        s
    }

    /// Parses a `tasfar_obs::metrics::snapshot()` document: numbers become
    /// scalars, objects with `count`/`sum` become histograms.
    pub fn from_metrics(doc: &Json) -> Snapshot {
        let mut values = BTreeMap::new();
        if let Json::Obj(pairs) = doc {
            for (name, v) in pairs {
                let value = match v {
                    Json::UInt(u) => Value::Scalar(*u as f64),
                    Json::Num(x) => Value::Scalar(*x),
                    Json::Obj(_) => match (v.get("count"), v.get("sum")) {
                        (Some(c), Some(s)) => Value::Hist {
                            count: c.as_f64().unwrap_or(0.0),
                            sum: s.as_f64().unwrap_or(0.0),
                        },
                        _ => continue,
                    },
                    _ => continue,
                };
                values.insert(name.clone(), value);
            }
        }
        Snapshot { values }
    }

    /// `after − before`, metric by metric. A metric missing from `before`
    /// counts from zero; one missing from `after` is dropped.
    pub fn diff(before: &Snapshot, after: &Snapshot) -> Snapshot {
        let values = after
            .values
            .iter()
            .map(|(k, a)| {
                let d = match (before.values.get(k), *a) {
                    (Some(Value::Scalar(b)), Value::Scalar(a)) => Value::Scalar(a - b),
                    (Some(Value::Hist { count: bc, sum: bs }), Value::Hist { count, sum }) => {
                        Value::Hist {
                            count: count - bc,
                            sum: sum - bs,
                        }
                    }
                    (_, a) => a,
                };
                (k.clone(), d)
            })
            .collect();
        Snapshot { values }
    }

    /// A counter's value (a histogram's count), 0 when absent.
    pub fn get(&self, name: &str) -> f64 {
        match self.values.get(name) {
            Some(Value::Scalar(v)) => *v,
            Some(Value::Hist { count, .. }) => *count,
            None => 0.0,
        }
    }

    /// A histogram's `(count, sum)`, zeros when absent.
    pub fn hist(&self, name: &str) -> (f64, f64) {
        match self.values.get(name) {
            Some(Value::Hist { count, sum }) => (*count, *sum),
            _ => (0.0, 0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), 50.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 0.999), 100.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&[3.0], 0.5), 3.0);
        let w = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(nearest_rank(&w, 0.5), 3.0, "⌈2.5⌉ = 3rd sample");
        assert_eq!(nearest_rank(&w, 0.9), 5.0);
    }

    #[test]
    fn timings_flag_thin_tails() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = Timing::of(&v, 0.99).unwrap();
        assert_eq!((t.n, t.p50, t.high), (1000, 499.0, 989.0));
        assert!(!t.flagged(), "exactly ten samples beyond p99 of 1000");
        assert!(Timing::of(&v[..999], 0.99).unwrap().flagged());
        assert!(!Timing::of(&v[..100], 0.9).unwrap().flagged());
        assert!(Timing::of(&v[..99], 0.9).unwrap().flagged());
        assert!(Timing::of(&[], 0.5).is_none());
        assert_eq!(beyond(10, 0.5), 5);
    }

    #[test]
    fn snapshot_diff_subtracts_counters_and_histograms() {
        let before =
            Json::parse(r#"{"a":5,"h":{"count":3,"sum":30,"p50":9.0,"buckets":{}},"gone":1}"#)
                .unwrap();
        let after =
            Json::parse(r#"{"a":12,"h":{"count":7,"sum":110,"buckets":{}},"new":4,"g":-2.5}"#)
                .unwrap();
        let d = Snapshot::diff(
            &Snapshot::from_metrics(&before),
            &Snapshot::from_metrics(&after),
        );
        assert_eq!(d.get("a"), 7.0);
        assert_eq!(d.hist("h"), (4.0, 80.0));
        assert_eq!(
            d.get("new"),
            4.0,
            "a metric born mid-phase counts from zero"
        );
        assert_eq!(d.get("g"), -2.5);
        assert_eq!(d.get("gone"), 0.0, "absent after the phase");
        assert_eq!(d.hist("missing"), (0.0, 0.0));
    }
}
