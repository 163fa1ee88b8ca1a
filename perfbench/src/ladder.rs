//! Capacity search: bracket the SLO threshold, then bisect it with a
//! staircase whose estimate averages every probe near the threshold.
//!
//! On a shared host one probe's SLO verdict depends on outside load during
//! that probe, so a plain bisection inherits the noise of its last few
//! verdicts and cannot recover from a spurious one. Here the rate moves up
//! after a pass and down after a fail; the step halves at every reversal
//! down to `MIN_STEP`, and the estimate is the geometric mean of the rates
//! probed from the second reversal on: the rate at which the SLO is met
//! half the time, averaged over the search.

/// One probed rate and whether it met the SLO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    pub rate: f64,
    pub pass: bool,
}

/// Smallest relative step of the staircase.
const MIN_STEP: f64 = 0.05;

/// Probes `max_probes` rates starting at `start`, first stepping by
/// `factor`. Returns the estimate (`None` when the verdict never flipped)
/// and every step in probe order.
pub fn search(
    start: f64,
    factor: f64,
    max_probes: usize,
    mut probe: impl FnMut(f64) -> bool,
) -> (Option<f64>, Vec<Step>) {
    assert!(factor > 1.0 && start > 0.0 && max_probes > 0);
    let mut steps: Vec<Step> = Vec::new();
    let mut reversals = Vec::new();
    let mut rate = start;
    let mut step = factor - 1.0;
    while steps.len() < max_probes {
        let pass = probe(rate);
        if steps.last().is_some_and(|s| s.pass != pass) {
            reversals.push(steps.len());
            step = (step / 2.0).max(MIN_STEP);
        }
        steps.push(Step { rate, pass });
        rate = if pass {
            rate * (1.0 + step)
        } else {
            rate / (1.0 + step)
        };
    }
    let from = match reversals[..] {
        [] => return (None, steps),
        [first] => first - 1,
        [_, second, ..] => second,
    };
    let near = &steps[from..];
    let estimate = (near.iter().map(|s| s.rate.ln()).sum::<f64>() / near.len() as f64).exp();
    (Some(estimate), steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_a_sharp_threshold() {
        let capacity = 5000.0;
        let (best, steps) = search(2000.0, 1.5, 12, |r| r <= capacity);
        let best = best.unwrap();
        assert!((best / capacity - 1.0).abs() < 0.08, "{best}");
        assert_eq!(steps.len(), 12);
        assert_eq!(
            steps[0],
            Step {
                rate: 2000.0,
                pass: true
            }
        );
        assert!(!steps[3].pass, "the fourth probe (6750) overshoots");
        // After the bracket every probe stays within one first step.
        assert!(steps[3..]
            .iter()
            .all(|s| s.rate > 3300.0 && s.rate < 7500.0));
    }

    #[test]
    fn brackets_downward_when_start_fails() {
        let (best, steps) = search(8000.0, 2.0, 8, |r| r <= 1500.0);
        let outcomes: Vec<bool> = steps[..4].iter().map(|s| s.pass).collect();
        assert_eq!(outcomes, [false, false, false, true]);
        assert!((best.unwrap() / 1500.0 - 1.0).abs() < 0.3, "{best:?}");
    }

    #[test]
    fn noisy_verdicts_average_out() {
        // Verdicts flip at 4000 ± 10% depending on the probe: the estimate
        // stays near the middle instead of following the last verdicts.
        let mut noise = crate::schedule::SplitMix::new(9);
        let (best, _) = search(3000.0, 1.25, 20, |r| {
            r <= 4000.0 * (0.9 + 0.2 * noise.unit())
        });
        let best = best.unwrap();
        assert!((best / 4000.0 - 1.0).abs() < 0.1, "{best}");
    }

    #[test]
    fn reports_none_without_a_flip() {
        let (best, steps) = search(100.0, 2.0, 4, |_| false);
        assert_eq!(best, None);
        assert_eq!(steps.len(), 4);
        let (best, _) = search(100.0, 2.0, 3, |_| true);
        assert_eq!(best, None);
    }
}
