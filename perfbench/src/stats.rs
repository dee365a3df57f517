//! The benchmark's own statistics: percentile selection under a minimum
//! sample rule, and spans with their self time.

use std::time::Instant;

/// Fewest samples a run must collect before it may report its tail
/// percentile.
pub const MIN_SAMPLES: usize = 100;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// The tail percentile every latency metric reports.
pub const TAIL_Q: f64 = 0.90;

/// Nearest-rank percentile `q` of `samples`: the smallest sample with at
/// least `q` of all samples at or below it.
///
/// # Errors
///
/// Fails when fewer than [`MIN_SAMPLES`] samples were collected, or when
/// fewer than [`MIN_TAIL`] samples lie beyond the selected rank. A run
/// that cannot support the percentile fails; it never falls back to a
/// lower one.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    if n < MIN_SAMPLES {
        return Err(format!("{n} samples collected; a percentile needs at least {MIN_SAMPLES}"));
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_TAIL {
        return Err(format!(
            "p{} over {n} samples leaves {} beyond it; at least {MIN_TAIL} are needed",
            q * 100.0,
            n - rank
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Median of a non-empty sample (mean of the middle two for an even
/// count); `NaN` for an empty one.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One recorded interval: a call into a layer, timed from outside it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call name (`arch.run`, `serve.round_trip`, ...).
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch.
    pub end: u64,
    /// Index of the span that caused this one, in the same tracer.
    pub parent: Option<usize>,
    /// The operation (job, request or upload) the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// An in-memory span recorder. Each thread records into its own tracer;
/// all share one epoch so their spans merge onto one time axis. A tracer
/// that does not record runs the same calls without reading the clock,
/// which is how the tracing overhead is measured.
#[derive(Debug, Clone)]
pub struct Tracer {
    epoch: Instant,
    record: bool,
    /// Recorded spans, in open order.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer over `epoch`; it records spans only if `record`.
    pub fn new(epoch: Instant, record: bool) -> Self {
        Tracer { epoch, record, spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index for [`Tracer::close`] and as the
    /// parent of nested spans.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        if !self.record {
            return usize::MAX;
        }
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, op });
        self.spans.len() - 1
    }

    /// Closes span `idx` now.
    pub fn close(&mut self, idx: usize) {
        if self.record {
            self.spans[idx].end = self.now();
        }
    }

    /// Runs `f` inside a span and returns its value.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.record {
            return f();
        }
        let idx = self.open(name, parent, op);
        let out = f();
        self.close(idx);
        out
    }
}

/// Self time of every span, in ns: its duration minus the part of its
/// interval that its children cover. Children that overlap each other are
/// counted once, and any part of a child outside its parent is ignored.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start.max(parent.start), s.end.min(parent.end));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur() - covered
        })
        .collect()
}

/// Self times, in seconds, of every span named `name`.
pub fn self_secs(spans: &[Span], selfs: &[u64], name: &str) -> Vec<f64> {
    spans.iter().zip(selfs).filter(|(s, _)| s.name == name).map(|(_, &t)| t as f64 / 1e9).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start, end, parent, op: 0 }
    }

    #[test]
    fn percentile_needs_the_minimum_sample() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&xs, TAIL_Q).is_err(), "99 samples must fail, not fall back");
        assert!(percentile(&xs, 0.5).is_err(), "the rule holds for the median too");
    }

    #[test]
    fn p90_of_one_hundred_leaves_ten_beyond() {
        // Reversed input: selection must sort.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, TAIL_Q), Ok(90.0));
        assert_eq!(percentile(&xs, 0.5), Ok(50.0));
        let beyond = xs.iter().filter(|&&x| x > 90.0).count();
        assert_eq!(beyond, MIN_TAIL);
    }

    #[test]
    fn nearest_rank_rounds_up() {
        let xs: Vec<f64> = (1..=105).map(f64::from).collect();
        // ceil(0.9 * 105) = 95: ten samples (96..=105) lie beyond it.
        assert_eq!(percentile(&xs, TAIL_Q), Ok(95.0));
    }

    #[test]
    fn a_percentile_without_ten_beyond_fails() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p99 of 100 leaves one sample beyond it.
        assert!(percentile(&xs, 0.99).is_err());
        // At 1000 samples p99 leaves exactly ten.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), Ok(990.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans =
            [span("job", 0, 100, None), span("a", 10, 30, Some(0)), span("b", 50, 60, Some(0))];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two children on parallel threads overlap on [20, 30].
        let spans =
            [span("req", 0, 100, None), span("a", 10, 30, Some(0)), span("b", 20, 40, Some(0))];
        assert_eq!(self_times(&spans)[0], 70);
    }

    #[test]
    fn child_outside_its_parent_is_clipped() {
        // The child starts before and ends after the parent's interval.
        let spans =
            [span("req", 10, 50, None), span("a", 0, 20, Some(0)), span("b", 40, 90, Some(0))];
        assert_eq!(self_times(&spans)[0], 20);
        // A child covering the whole parent leaves no self time.
        let spans = [span("req", 10, 50, None), span("a", 0, 90, Some(0))];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn nested_spans_charge_each_level_once() {
        let spans = [
            span("job", 0, 100, None),
            span("run", 10, 90, Some(0)),
            span("inner", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 70, 10]);
        assert_eq!(self_secs(&spans, &self_times(&spans), "run"), vec![70e-9]);
    }

    #[test]
    fn tracer_nests_and_times() {
        let mut t = Tracer::new(Instant::now(), true);
        let root = t.open("job", None, 7);
        let v = t.time("work", Some(root), 7, || 41 + 1);
        t.close(root);
        assert_eq!(v, 42);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].start <= t.spans[1].start && t.spans[1].end <= t.spans[0].end);
    }

    #[test]
    fn a_tracer_that_does_not_record_runs_the_same_calls() {
        let mut t = Tracer::new(Instant::now(), false);
        let root = t.open("job", None, 7);
        let v = t.time("work", Some(root), 7, || 41 + 1);
        t.close(root);
        assert_eq!(v, 42);
        assert!(t.spans.is_empty());
    }
}
