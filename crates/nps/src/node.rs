//! A single NPS node.

use crate::config::NpsConfig;
use crate::simplex::NelderMeadScratch;
use ices_coord::{relative_error, Coordinate, Embedding, PeerSample, StepOutcome};
use ices_stats::ewma::Ewma;
use ices_stats::rng::SimRng;
use rand::RngExt;
use serde::{Deserialize, Serialize};
use ices_stats::streams;

/// Summary of one completed positioning round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundSummary {
    /// Residual objective (mean squared relative fit error) after the
    /// round's repositioning.
    pub fit_error: f64,
    /// Reference points discarded by NPS's built-in security filter.
    pub discarded: Vec<usize>,
    /// Samples used in the final solve.
    pub samples_used: usize,
}

/// Per-node NPS state.
///
/// The node buffers accepted reference-point samples during a round
/// ([`Embedding::apply_step`] stores a sample and reports `moved:
/// false`); [`NpsNode::finish_round`] runs the built-in security filter
/// and the downhill-simplex solve, actually moving the coordinate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NpsNode {
    id: usize,
    config: NpsConfig,
    coordinate: Coordinate,
    local_error: Ewma,
    round: Vec<PeerSample>,
    steps: u64,
    rounds: u64,
    rng: SimRng,
    /// Solver workspace reused across restarts and rounds. Pure scratch:
    /// not part of the node's semantic state — it serializes as `null`
    /// and deserialized nodes start with a cold workspace.
    scratch: SolveScratch,
}

/// Flattened per-solve inputs plus the Nelder–Mead workspace.
///
/// `solve()` copies the round's reference-point coordinates and RTTs
/// into these flat buffers once, then the objective kernel streams over
/// plain `&[f64]` slices — no `Coordinate` construction per evaluation.
#[derive(Debug, Clone, Default)]
struct SolveScratch {
    nm: NelderMeadScratch,
    /// Reference-point positions, **dimension-major** `dims × samples`
    /// (structure-of-arrays): per-dimension rows keep the kernel's inner
    /// loops lane-independent, so they vectorize without any
    /// reassociation.
    rp_soa: Vec<f64>,
    /// Reference-point coordinate heights, one per sample.
    rp_heights: Vec<f64>,
    /// Measured RTTs, one per sample.
    rtts: Vec<f64>,
    /// RTTs again, sorted for the median.
    sorted_rtts: Vec<f64>,
    /// Per-sample squared-distance accumulators (kernel buffer).
    sq: Vec<f64>,
    /// Per-sample squared relative errors (kernel buffer).
    terms: Vec<f64>,
    /// Starting point of the current restart.
    start: Vec<f64>,
    /// Best solution across restarts.
    best_x: Vec<f64>,
}

// The vendored serde derive has no `#[serde(skip)]`, so the workspace
// opts out by hand: it encodes as `null` and always deserializes cold.
impl Serialize for SolveScratch {
    fn to_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl Deserialize for SolveScratch {
    fn from_value(_: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Self::default())
    }
}

impl NpsNode {
    /// Create a node with a small random initial coordinate (breaking the
    /// all-at-origin symmetry that the simplex solver cannot).
    pub fn new(id: usize, config: NpsConfig, seed: u64) -> Self {
        config.validate();
        let mut rng = SimRng::from_stream(seed, id as u64, streams::NPSN); // "NPSN"
        let coordinate = Coordinate::random(config.space, 1.0, &mut rng);
        Self {
            id,
            config,
            coordinate,
            local_error: Ewma::new(config.error_smoothing, config.initial_error),
            round: Vec::new(),
            steps: 0,
            rounds: 0,
            rng,
            scratch: SolveScratch::default(),
        }
    }

    /// Node identifier.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Configuration in force.
    pub fn config(&self) -> &NpsConfig {
        &self.config
    }

    /// Embedding steps accepted so far (across all rounds).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Positioning rounds completed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Samples buffered in the current round.
    pub fn pending_samples(&self) -> usize {
        self.round.len()
    }

    /// Forget all positioning state and rejoin (§3.2's second embedding).
    pub fn reset(&mut self) {
        self.coordinate = Coordinate::random(self.config.space, 1.0, &mut self.rng);
        self.local_error = Ewma::new(self.config.error_smoothing, self.config.initial_error);
        self.round.clear();
        self.steps = 0;
        self.rounds = 0;
    }

    /// Complete the current round: run NPS's built-in security filter,
    /// reposition via downhill simplex, update the local error, and clear
    /// the buffer.
    ///
    /// Returns `None` — leaving the coordinate untouched — when fewer
    /// than `config.min_rps` samples were accepted this round (the
    /// detection protocol may have vetoed the rest).
    pub fn finish_round(&mut self) -> Option<RoundSummary> {
        if self.round.len() < self.config.min_rps {
            self.round.clear();
            return None;
        }
        let mut samples = std::mem::take(&mut self.round);
        let mut discarded = Vec::new();

        if self.config.basic_security {
            // NPS's built-in landmark filter, faithfully primitive: after
            // a trial solve, discard only the SINGLE worst-fitting
            // reference point, and only if its error exceeds
            // `sensitivity ×` the median fit error. (One elimination per
            // round is exactly why the paper's reference [11] defeats it
            // with a colluding minority — the SIGCOMM'07 paper calls the
            // mechanism "too primitive".)
            if samples.len() > self.config.min_rps {
                let trial = self.solve(&samples);
                let errors: Vec<f64> = samples.iter().map(|s| fit_error(&trial, s)).collect();
                let mut sorted = errors.clone();
                sorted.sort_by(f64::total_cmp);
                let median = sorted[sorted.len() / 2].max(1e-3);
                let threshold = self.config.sensitivity * median;
                let worst = errors
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                if errors.get(worst).copied().unwrap_or(0.0) > threshold {
                    let dropped = samples.remove(worst);
                    discarded.push(dropped.peer);
                }
            }
        }

        let solution = self.solve(&samples);
        let fit = mean_sq_rel_error(&solution, &samples);
        self.coordinate = solution;
        self.rounds += 1;
        Some(RoundSummary {
            fit_error: fit,
            discarded,
            samples_used: samples.len(),
        })
    }

    /// Minimize the GNP objective — the sum of squared relative errors
    /// against the sampled reference points. Solves from the current
    /// coordinate plus `solver_restarts − 1` random starting points (the
    /// GNP recipe: the objective has mirror-fold local minima) and keeps
    /// the best.
    fn solve(&mut self, samples: &[PeerSample]) -> Coordinate {
        debug_assert!(!samples.is_empty());
        let dims = self.config.space.dims();
        let scratch = &mut self.scratch;

        // Flatten the reference set once per solve (transposed to
        // dimension-major); the objective kernel then streams over plain
        // slices. Rows are padded to a whole number of cache lines (the
        // pad lanes are never read) so each dimension row starts aligned.
        let ns = samples.len();
        let stride = (ns + 7) & !7;
        scratch.rp_soa.clear();
        scratch.rp_soa.resize(dims * stride, 0.0);
        scratch.rp_heights.clear();
        scratch.rtts.clear();
        for (s_idx, s) in samples.iter().enumerate() {
            for (d, &p) in s.peer_coord.position().iter().enumerate() {
                scratch.rp_soa[d * stride + s_idx] = p;
            }
            scratch.rp_heights.push(s.peer_coord.height());
            scratch.rtts.push(s.rtt_ms);
        }
        scratch.sq.clear();
        scratch.sq.resize(ns, 0.0);
        scratch.terms.clear();
        scratch.terms.resize(ns, 0.0);
        scratch.sorted_rtts.clear();
        scratch.sorted_rtts.extend_from_slice(&scratch.rtts);
        scratch.sorted_rtts.sort_by(f64::total_cmp);
        let median_rtt = scratch.sorted_rtts[scratch.sorted_rtts.len() / 2];
        let step = (median_rtt / 4.0).max(1.0);

        let SolveScratch {
            nm,
            rp_soa,
            rp_heights,
            rtts,
            sq,
            terms,
            start,
            best_x,
            ..
        } = scratch;
        // Bind plain slices once so the objective closure captures flat
        // pointers, not `&mut Vec` indirections.
        let rp_soa = &rp_soa[..];
        let rp_heights = &rp_heights[..];
        let rtts = &rtts[..];
        let sq = &mut sq[..];
        let terms = &mut terms[..];
        let mut best: Option<f64> = None;
        for restart in 0..self.config.solver_restarts {
            start.clear();
            if restart == 0 {
                start.extend_from_slice(self.coordinate.position());
            } else {
                // A random point at the network's scale.
                for _ in 0..dims {
                    start.push((self.rng.random::<f64>() * 2.0 - 1.0) * median_rtt);
                }
            }
            let stats = nm.minimize(
                |x| flat_objective(x, rp_soa, stride, rp_heights, rtts, sq, terms),
                start,
                step,
                self.config.solver_max_iter,
                self.config.solver_tol,
            );
            if best.map(|v| stats.value < v).unwrap_or(true) {
                best = Some(stats.value);
                best_x.clear();
                best_x.extend_from_slice(nm.best_point());
            }
        }
        // solver_restarts >= 1 (config invariant), so best_x was written
        // by at least one restart.
        Coordinate::euclidean(best_x.clone())
    }
}

/// The GNP objective over flat slices: the sum of squared relative
/// errors of candidate `x` against every reference point.
///
/// Bit-for-bit identical to evaluating `Coordinate::euclidean(x)` and
/// `Coordinate::distance` per sample, but laid out for vectorization:
/// every loop except the final reduction is lane-independent across
/// samples, so the compiler may pack lanes freely — each lane executes
/// the exact scalar IEEE op sequence, no reassociation required.
///
/// Per sample the operation order is preserved exactly: the
/// squared-difference accumulator advances in component order from 0.0
/// (as `vector::distance`'s `sum()` does); the candidate's height is
/// zero, so `sqrt(sq) + peer_height` reproduces
/// `dist + self.height + other.height` (`d + 0.0` is exact for the
/// non-negative `d` a square root returns); and the final sum adds the
/// per-sample terms in sample order from 0.0.
#[inline(always)]
fn flat_objective(
    x: &[f64],
    rp_soa: &[f64],
    stride: usize,
    rp_heights: &[f64],
    rtts: &[f64],
    sq: &mut [f64],
    terms: &mut [f64],
) -> f64 {
    debug_assert!(!x.is_empty(), "candidate point must have dimensions");
    // sq[s] += (x_d − p_{s,d})² in dimension order — per-sample order
    // identical to the scalar distance, lanes independent across `s`.
    // Rows are `stride`-spaced (cache-line padded); the pad is dead.
    // The first dimension initializes the accumulators outright: a
    // square is never −0.0, so `0.0 + diff²` is bitwise `diff²` and the
    // explicit zeroing pass can be skipped.
    // audit:allow(FAST01): row walk over the SoA matrix; per-sample op order matches the scalar distance, no reduction reassociated
    let mut rows = x.iter().zip(rp_soa.chunks_exact(stride));
    if let Some((&xd, row)) = rows.next() {
        for (q, &p) in sq.iter_mut().zip(row) {
            let diff = xd - p;
            *q = diff * diff;
        }
    }
    for (&xd, row) in rows {
        for (q, &p) in sq.iter_mut().zip(row) {
            let diff = xd - p;
            *q += diff * diff;
        }
    }
    for (((t, &q), &height), &rtt) in
        terms.iter_mut().zip(sq.iter()).zip(rp_heights).zip(rtts)
    {
        debug_assert!(
            rtt > 0.0,
            "non-positive RTT {rtt} reached the objective kernel"
        );
        let est = q.sqrt() + height;
        let rel = (est - rtt) / rtt;
        *t = rel * rel;
    }
    let mut total = 0.0;
    for &t in terms.iter() {
        total += t;
    }
    total
}

fn fit_error(coord: &Coordinate, sample: &PeerSample) -> f64 {
    relative_error(coord, &sample.peer_coord, sample.rtt_ms)
}

fn mean_sq_rel_error(coord: &Coordinate, samples: &[PeerSample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples
        .iter()
        .map(|s| fit_error(coord, s).powi(2))
        .sum::<f64>()
        / samples.len() as f64
}

impl Embedding for NpsNode {
    fn coordinate(&self) -> &Coordinate {
        &self.coordinate
    }

    fn local_error(&self) -> f64 {
        if self.local_error.is_initialized() {
            self.local_error.value()
        } else {
            self.config.initial_error
        }
    }

    fn apply_step(&mut self, sample: &PeerSample) -> StepOutcome {
        // A zero, negative, or non-finite RTT is a broken measurement:
        // the GNP objective divides by it, so one such sample would feed
        // NaN/Inf into every evaluation of the round's solve. Refuse to
        // buffer it — the node observes nothing and the coordinate
        // holds.
        if !(sample.rtt_ms.is_finite() && sample.rtt_ms > 0.0) {
            return StepOutcome {
                relative_error: f64::INFINITY,
                local_error: self.local_error(),
                moved: false,
            };
        }
        let d = relative_error(&self.coordinate, &sample.peer_coord, sample.rtt_ms);
        self.local_error.update(d);
        self.round.push(sample.clone());
        self.steps += 1;
        StepOutcome {
            relative_error: d,
            local_error: self.local_error(),
            moved: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ices_coord::Space;

    fn small_config() -> NpsConfig {
        // 2-d space so tests are cheap and geometric intuition holds.
        NpsConfig {
            space: Space::euclidean(2),
            landmarks: 6,
            rps_per_node: 6,
            min_rps: 3,
            ..NpsConfig::paper_default()
        }
    }

    /// Anchors on a ring plus the true distances toward `truth`.
    fn anchors_and_samples(truth: &[f64]) -> Vec<PeerSample> {
        let anchors = [
            vec![0.0, 0.0],
            vec![100.0, 0.0],
            vec![0.0, 100.0],
            vec![100.0, 100.0],
            vec![50.0, -40.0],
            vec![-40.0, 50.0],
        ];
        anchors
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let d = ((a[0] - truth[0]).powi(2) + (a[1] - truth[1]).powi(2)).sqrt();
                PeerSample {
                    peer: i,
                    peer_coord: Coordinate::euclidean(a.clone()),
                    peer_error: 0.1,
                    rtt_ms: d.max(1.0),
                }
            })
            .collect()
    }

    #[test]
    fn steps_buffer_without_moving() {
        let mut n = NpsNode::new(0, small_config(), 1);
        let before = n.coordinate().clone();
        let samples = anchors_and_samples(&[30.0, 40.0]);
        for s in &samples[..3] {
            let out = n.apply_step(s);
            assert!(!out.moved);
        }
        assert_eq!(n.pending_samples(), 3);
        assert_eq!(n.coordinate(), &before);
    }

    #[test]
    fn non_positive_rtt_samples_are_rejected() {
        let mut n = NpsNode::new(0, small_config(), 9);
        let before_err = n.local_error();
        let mut bad = anchors_and_samples(&[30.0, 40.0]).remove(0);
        for rtt in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            bad.rtt_ms = rtt;
            let out = n.apply_step(&bad);
            assert!(!out.moved);
            assert!(out.relative_error.is_infinite());
        }
        assert_eq!(n.pending_samples(), 0, "broken samples must not buffer");
        assert_eq!(n.steps(), 0);
        assert_eq!(n.local_error(), before_err, "EWMA must not absorb garbage");
    }

    #[test]
    fn finish_round_recovers_position() {
        let mut n = NpsNode::new(0, small_config(), 2);
        for s in anchors_and_samples(&[30.0, 40.0]) {
            n.apply_step(&s);
        }
        let summary = n.finish_round().expect("round should complete");
        assert!(summary.fit_error < 1e-4, "fit = {}", summary.fit_error);
        assert!(summary.discarded.is_empty());
        let pos = n.coordinate().position();
        assert!(
            (pos[0] - 30.0).abs() < 1.0 && (pos[1] - 40.0).abs() < 1.0,
            "recovered {pos:?}"
        );
        assert_eq!(n.rounds(), 1);
        assert_eq!(n.pending_samples(), 0);
    }

    #[test]
    fn too_few_samples_skip_the_round() {
        let mut n = NpsNode::new(0, small_config(), 3);
        let before = n.coordinate().clone();
        let samples = anchors_and_samples(&[30.0, 40.0]);
        n.apply_step(&samples[0]);
        n.apply_step(&samples[1]);
        assert!(n.finish_round().is_none());
        assert_eq!(n.coordinate(), &before);
        assert_eq!(n.rounds(), 0);
        assert_eq!(n.pending_samples(), 0, "buffer must clear regardless");
    }

    #[test]
    fn basic_security_discards_lying_reference_point() {
        let mut cfg = small_config();
        cfg.sensitivity = 4.0;
        cfg.basic_security = true;
        let mut n = NpsNode::new(0, cfg, 4);
        let mut samples = anchors_and_samples(&[30.0, 40.0]);
        // One RP lies wildly about its coordinate: claims to be far away
        // while the RTT says close.
        samples[5].peer_coord = Coordinate::euclidean(vec![5000.0, 5000.0]);
        for s in &samples {
            n.apply_step(s);
        }
        let summary = n.finish_round().expect("round completes");
        assert_eq!(summary.discarded, vec![5], "the liar should be dropped");
        let pos = n.coordinate().position();
        assert!(
            (pos[0] - 30.0).abs() < 2.0 && (pos[1] - 40.0).abs() < 2.0,
            "position survived the attack: {pos:?}"
        );
    }

    #[test]
    fn security_off_lets_the_lie_through() {
        let mut cfg = small_config();
        cfg.basic_security = false;
        let mut n = NpsNode::new(0, cfg, 5);
        let mut samples = anchors_and_samples(&[30.0, 40.0]);
        samples[5].peer_coord = Coordinate::euclidean(vec![5000.0, 5000.0]);
        for s in &samples {
            n.apply_step(s);
        }
        let summary = n.finish_round().expect("round completes");
        assert!(summary.discarded.is_empty());
        assert!(
            summary.fit_error > 1e-2,
            "the lie should hurt the fit: {}",
            summary.fit_error
        );
    }

    #[test]
    fn local_error_decreases_on_good_rounds() {
        let mut n = NpsNode::new(0, small_config(), 6);
        assert_eq!(n.local_error(), 1.0);
        for _ in 0..5 {
            for s in anchors_and_samples(&[30.0, 40.0]) {
                n.apply_step(&s);
            }
            n.finish_round();
        }
        assert!(n.local_error() < 0.2, "e_l = {}", n.local_error());
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut n = NpsNode::new(0, small_config(), 7);
        for s in anchors_and_samples(&[30.0, 40.0]) {
            n.apply_step(&s);
        }
        n.finish_round();
        n.reset();
        assert_eq!(n.rounds(), 0);
        assert_eq!(n.steps(), 0);
        assert_eq!(n.local_error(), 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut n = NpsNode::new(3, small_config(), 11);
            for s in anchors_and_samples(&[70.0, -20.0]) {
                n.apply_step(&s);
            }
            n.finish_round();
            n.coordinate().clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn eight_dimensional_solve_works() {
        // The paper's actual 8-d configuration, landmarks at distinct
        // random-ish corners.
        let cfg = NpsConfig::paper_default();
        let mut n = NpsNode::new(0, cfg, 8);
        let truth: Vec<f64> = (0..8).map(|i| 10.0 * i as f64).collect();
        let samples: Vec<PeerSample> = (0..20)
            .map(|k| {
                let pos: Vec<f64> = (0..8)
                    .map(|d| {
                        if (k + d) % 3 == 0 {
                            100.0
                        } else {
                            -30.0 * (d as f64 + 1.0) / (k as f64 + 1.0)
                        }
                    })
                    .collect();
                let dist = pos
                    .iter()
                    .zip(&truth)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                PeerSample {
                    peer: k,
                    peer_coord: Coordinate::euclidean(pos),
                    peer_error: 0.1,
                    rtt_ms: dist.max(1.0),
                }
            })
            .collect();
        for s in &samples {
            n.apply_step(s);
        }
        let summary = n.finish_round().expect("round completes");
        assert!(
            summary.fit_error < 0.05,
            "8-d fit error = {}",
            summary.fit_error
        );
    }
}
