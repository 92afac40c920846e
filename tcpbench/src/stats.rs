//! The benchmark's own arithmetic: percentiles with their sample-count
//! rule, the epoch-aligned measurement window, and the replica-side
//! correctness gate.

use std::collections::{BTreeMap, HashMap, HashSet};

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `pct`% of all samples at or below it. 0 for no samples.
pub fn quantile(sorted: &[f64], pct: u32) -> f64 {
    match rank(sorted.len(), pct) {
        0 => 0.0,
        r => sorted[r - 1],
    }
}

/// [`quantile`] under the reporting rule: a percentile is reported only when
/// at least ten samples lie beyond it. Failed operations enter the slice as
/// `f64::INFINITY`, so they count as missing every latency limit.
pub fn percentile(sorted: &[f64], pct: u32) -> Option<f64> {
    let n = sorted.len();
    (n > 0 && n - rank(n, pct) >= 10).then(|| quantile(sorted, pct))
}

/// 1-based nearest rank, `ceil(pct × n / 100)`, in integers.
fn rank(n: usize, pct: u32) -> usize {
    (pct as usize * n).div_ceil(100)
}

/// Sorts samples ascending; infinities (failures) sort last.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// Mean of a slice, 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// A session's measured window: one whole epoch, from the boundary at which
/// the first replica entered it to the one at which the first replica left
/// it. Times are ns on the benchmark clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Window {
    pub start: u64,
    pub end: u64,
}

impl Window {
    pub fn contains(&self, t: u64) -> bool {
        self.start <= t && t < self.end
    }

    pub fn seconds(&self) -> f64 {
        (self.end - self.start) as f64 / 1e9
    }
}

/// The first epoch that may open the window: the first one entered after
/// the load started. Epoch 0 begins at boot, so it is the warm-up: the
/// load starts right after the set-up probe and runs through the rest of
/// it. `boundaries` maps each epoch ≥ 1 to the earliest time any replica
/// entered it.
pub fn first_measured_epoch(boundaries: &BTreeMap<u64, u64>, load_start: u64) -> Option<u64> {
    boundaries
        .iter()
        .find(|(_, t)| **t >= load_start)
        .map(|(e, _)| *e)
}

/// The window, once its closing boundary has been seen.
pub fn select_window(boundaries: &BTreeMap<u64, u64>, load_start: u64) -> Option<Window> {
    let epoch = first_measured_epoch(boundaries, load_start)?;
    Some(Window {
        start: boundaries[&epoch],
        end: *boundaries.get(&(epoch + 1))?,
    })
}

/// The replica-side correctness gate over each replica's deliveries, given
/// as `(request sequence number, request timestamp)` in delivery order:
/// no request delivered twice at a replica, every pair of replicas assigns
/// the same request to every sequence number both delivered (the check of
/// `CommitLog::check_agreement`), and all replicas delivered equally many.
pub fn check_replicas(logs: &[Vec<(u64, u64)>]) -> Result<(), String> {
    let mut assigned: HashMap<u64, (usize, u64)> = HashMap::new();
    for (node, log) in logs.iter().enumerate() {
        let mut seen = HashSet::with_capacity(log.len());
        for &(sn, ts) in log {
            if !seen.insert(ts) {
                return Err(format!("replica {node} delivered request {ts} twice"));
            }
            let (first_node, first_ts) = *assigned.entry(sn).or_insert((node, ts));
            if first_ts != ts {
                return Err(format!(
                    "divergence at request seq nr {sn}: replica {first_node} delivered \
                     request {first_ts}, replica {node} delivered request {ts}"
                ));
            }
        }
    }
    let counts: Vec<usize> = logs.iter().map(Vec::len).collect();
    if counts.windows(2).any(|w| w[0] != w[1]) {
        return Err(format!("unequal per-replica delivered counts {counts:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle: the smallest sample `x` with `#{y ≤ x} ≥ pct/100 × n`,
    /// found by scanning the sorted vector.
    fn oracle(sorted: &[f64], pct: u32) -> f64 {
        let n = sorted.len() as f64;
        *sorted
            .iter()
            .find(|x| sorted.iter().filter(|y| *y <= *x).count() as f64 * 100.0 >= pct as f64 * n)
            .unwrap()
    }

    #[test]
    fn percentile_matches_sorted_vector_oracle() {
        let mut state = 7u64;
        for n in [20usize, 37, 100, 999, 1000, 1013, 4096] {
            let samples: Vec<f64> = (0..n)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 40) as f64 / 7.0
                })
                .collect();
            let s = sorted(samples);
            for pct in [50, 90, 99] {
                let beyond = n - (pct as usize * n).div_ceil(100);
                match percentile(&s, pct) {
                    Some(v) => {
                        assert!(beyond >= 10, "n={n} p{pct}");
                        assert_eq!(v, oracle(&s, pct), "n={n} p{pct}");
                    }
                    None => assert!(beyond < 10, "n={n} p{pct} should be reported"),
                }
            }
        }
        assert_eq!(
            percentile(&sorted((0..999).map(f64::from).collect()), 99),
            None
        );
        assert_eq!(
            percentile(&sorted((0..1000).map(f64::from).collect()), 99),
            Some(989.0)
        );
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn failures_enter_as_infinite() {
        let mut v: Vec<f64> = (0..1000).map(f64::from).collect();
        v.extend(std::iter::repeat_n(f64::INFINITY, 5));
        let s = sorted(v.clone());
        assert!(percentile(&s, 99).unwrap().is_finite());
        v.extend(std::iter::repeat_n(f64::INFINITY, 10));
        let s = sorted(v);
        assert_eq!(percentile(&s, 99), Some(f64::INFINITY));
        assert!(percentile(&s, 50).unwrap().is_finite());
    }

    #[test]
    fn window_opens_at_the_first_boundary_after_the_load_starts() {
        // Load starts at t=100 inside epoch 0 (the warm-up); epoch 1 begins
        // at 800 and opens the window.
        let mut b = BTreeMap::from([(1, 800)]);
        assert_eq!(first_measured_epoch(&b, 100), Some(1));
        assert_eq!(select_window(&b, 100), None, "closing boundary unseen");
        b.insert(2, 1600);
        let w = select_window(&b, 100).unwrap();
        assert_eq!((w.start, w.end), (800, 1600));
        assert!(w.contains(800) && !w.contains(1600));
        // A boundary before the load started never opens the window.
        assert_eq!(first_measured_epoch(&b, 900), Some(2));
        assert_eq!(select_window(&b, 900), None);
        b.insert(3, 2400);
        assert_eq!(
            select_window(&b, 900),
            Some(Window {
                start: 1600,
                end: 2400
            })
        );
        assert_eq!(first_measured_epoch(&BTreeMap::from([(1, 800)]), 900), None);
    }

    #[test]
    fn replica_gate_catches_a_planted_divergence() {
        let good = vec![(0, 10), (1, 11), (2, 12)];
        assert_eq!(
            check_replicas(&[good.clone(), good.clone(), good.clone()]),
            Ok(())
        );

        let swapped = vec![(0, 10), (1, 12), (2, 11)];
        let err = check_replicas(&[good.clone(), swapped, good.clone()]).unwrap_err();
        assert!(err.contains("divergence at request seq nr 1"), "{err}");

        let twice = vec![(0, 10), (1, 11), (2, 11)];
        assert!(check_replicas(&[twice]).unwrap_err().contains("twice"));

        let short = vec![(0, 10), (1, 11)];
        assert!(check_replicas(&[good, short])
            .unwrap_err()
            .contains("unequal"));
    }
}
