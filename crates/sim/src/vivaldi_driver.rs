//! Vivaldi behind the secured driver.
//!
//! Runs the paper's Vivaldi setup end to end: the synthetic topology,
//! 64-neighbor spring relaxation, Surveyors embedding exclusively among
//! themselves, and the opt-in cross-verification defense and
//! registrar-poisoning (eclipse) steering. Each embedding *tick* is one
//! neighbor slot of one pass ([`Schedule::Slots`]): every node probes
//! its slot peer and steps its spring against the tick's snapshot; the
//! detector round closes at the end of the pass. Probe nonces derive
//! from `(tick, node)` ([`streams::STEP`], retries [`streams::RTRY`]).

use crate::driver::{Backend, Intake, Schedule, SecureDriver};
use crate::scenario::{ScenarioConfig, SurveyorPlacement, TopologyKind};
use ices_attack::defense::witness_votes_against;
use ices_attack::DefenseConfig;
use ices_netsim::{EclipsePlan, Network};
use ices_stats::kmeans::kmeans;
use ices_stats::rng::{derive, derive2, SimRng};
use ices_stats::sample::sample_indices;
use ices_stats::streams;
use ices_vivaldi::{select_neighbors, VivaldiConfig, VivaldiNode};
use rand::RngExt;
use std::collections::BTreeSet;

/// Above this population size, neighbor selection samples a bounded
/// candidate pool per node instead of scanning all n−1 peers — the full
/// scan is O(n²) at construction, untenable at 50k+. Both paper-scale
/// populations (280, 1740) sit below the cap, so their candidate pools —
/// and every downstream fingerprint — are unchanged.
const NEIGHBOR_CANDIDATE_CAP: usize = 2048;

/// Distinct candidates sampled per node above the cap — comfortably more
/// than the paper's 64-neighbor budget needs for a healthy close/far mix.
const NEIGHBOR_CANDIDATE_SAMPLE: usize = 512;

/// The Vivaldi backend: spring-relaxation nodes probing one neighbor
/// slot per tick.
pub struct Vivaldi {
    config: VivaldiConfig,
    population: usize,
    /// Opt-in cross-verification defense; [`DefenseConfig::off`] (the
    /// paper's system) by default.
    defense: DefenseConfig,
    /// Registrar-poisoning plan; the empty plan steers nothing and
    /// keeps every draw bit-identical to an un-eclipsed run.
    eclipse: EclipsePlan,
    /// Monotone nonce for eclipse-steered replacement draws.
    replacement_draws: u64,
}

/// The Vivaldi system simulation.
pub type VivaldiSimulation = SecureDriver<Vivaldi>;

impl Backend for Vivaldi {
    type Node = VivaldiNode;

    const NAME: &'static str = "vivaldi";

    fn node(&self, id: usize, seed: u64) -> VivaldiNode {
        VivaldiNode::new(id, self.config, seed)
    }

    fn reset(node: &mut VivaldiNode) {
        node.reset();
    }

    fn schedule(&self) -> Schedule {
        Schedule::Slots
    }

    fn probe_nonce(tick: u64, node: usize, _k: usize, attempt: u32) -> u64 {
        if attempt == 0 {
            derive2(streams::STEP, tick, node as u64)
        } else {
            derive2(derive(streams::RTRY, attempt as u64), tick, node as u64)
        }
    }

    fn join_nonce(node: usize, k: usize) -> u64 {
        derive2(streams::JOIN, node as u64, k as u64)
    }

    /// Registrar poisoning: an eclipsed victim is shown only the honest
    /// share of Surveyor referrals (never zero — total starvation would
    /// stall the join rather than subvert it).
    fn join_referrals(&self, node: usize, offered: usize) -> usize {
        self.eclipse.surveyor_referrals(node, offered)
    }

    /// Opt-in cross-verification: before the innovation test sees the
    /// sample, the victim cross-probes the claimed coordinate through
    /// seeded witnesses and rejects outright on quorum geometric
    /// inconsistency. Witness draws and probe nonces are pure functions
    /// of (tick, node, peer, witness), preserving thread-count
    /// invariance.
    fn screen(&self, intake: &Intake<'_>) -> (u64, bool) {
        let defense = &self.defense;
        if !defense.enabled {
            return (0, false);
        }
        let (node, peer, tick) = (intake.node, intake.sample.peer, intake.tick);
        let witnesses = defense.draw_witnesses(tick, node, peer, intake.snapshot.len());
        let mut against = 0usize;
        for &w in &witnesses {
            // Colluding witnesses corroborate a colluding peer's story
            // unconditionally.
            if intake.tampered && intake.adversary.is_malicious(w) {
                continue;
            }
            let w_rtt = intake.network.measure_rtt_smoothed(
                w,
                peer,
                derive2(derive(streams::XPRB, w as u64), tick, node as u64),
            );
            if witness_votes_against(
                &intake.sample.peer_coord,
                &intake.snapshot.coordinate(w),
                w_rtt,
                defense.tolerance,
            ) {
                against += 1;
            }
        }
        (witnesses.len() as u64, against >= defense.quorum)
    }

    /// A fresh random node (not self, not already a neighbor). An
    /// eclipsed victim's draw is steered toward an attacker with the
    /// plan's strength; a steered pick already in the set falls back to
    /// an honest draw rather than duplicating a neighbor.
    fn replacement(&mut self, node: usize, peers: &[usize], rng: &mut SimRng) -> Option<usize> {
        let fresh = |candidate: usize| candidate != node && !peers.contains(&candidate);
        if self.eclipse.is_victim(node) {
            self.replacement_draws += 1;
            if let Some(candidate) = self.eclipse.steer_replacement(node, self.replacement_draws) {
                if fresh(candidate) {
                    return Some(candidate);
                }
            }
        }
        // Population exhausted (tiny tests): keep the peer.
        (0..32)
            .map(|_| rng.random_range(0..self.population))
            .find(|&candidate| fresh(candidate))
    }
}

impl SecureDriver<Vivaldi> {
    /// Build the system: topology, Surveyor/malicious assignment, and
    /// neighbor sets. All nodes start at the origin, unconverged.
    ///
    /// # Panics
    /// Panics on invalid scenario configuration or if the Surveyor
    /// budget rounds to fewer than 2 nodes (Surveyors need each other).
    pub fn new(config: ScenarioConfig) -> Self {
        Self::with_vivaldi_config(config, VivaldiConfig::paper_default())
    }

    /// Like [`VivaldiSimulation::new`] with explicit Vivaldi parameters.
    pub fn with_vivaldi_config(config: ScenarioConfig, vivaldi: VivaldiConfig) -> Self {
        config.validate();
        vivaldi.validate();
        let seed = config.seed;
        // Ground-truth latent positions, for k-means Surveyor placement.
        let (network, latent) = match &config.topology {
            TopologyKind::King(kc) => {
                let mut topo = kc.generate(seed);
                let positions = std::mem::take(&mut topo.positions);
                (Network::from_king(topo, seed), positions)
            }
            TopologyKind::StreamedKing(kc) => {
                // Same King model, no O(n²) matrix: pairs are recomputed
                // on demand and the placement is the only per-node state.
                let synth = ices_netsim::SynthRtt::new(kc.clone(), seed);
                let positions = synth.placement().positions.clone();
                (Network::from_synth(synth, seed), positions)
            }
            TopologyKind::PlanetLab(pc) => {
                let mut pl = pc.generate(seed);
                let positions = std::mem::take(&mut pl.topology.positions);
                (Network::from_planetlab(pl, seed), positions)
            }
        };
        let n = network.len();
        let mut rng = SimRng::from_stream(seed, streams::VIVD, 0);

        // Surveyor deployment.
        let want = ((n as f64) * config.surveyors.fraction()).round().max(2.0) as usize;
        let surveyors: BTreeSet<usize> = match config.surveyors {
            SurveyorPlacement::Random { .. } => sample_indices(&mut rng, n, want.min(n))
                .into_iter()
                .collect(),
            SurveyorPlacement::KMeansHeads { .. } => {
                let points: Vec<Vec<f64>> = latent.iter().map(|&(x, y)| vec![x, y]).collect();
                let mut heads: BTreeSet<usize> = kmeans(&points, want.min(n), seed, 100)
                    .heads
                    .into_iter()
                    .collect();
                // Top up with random nodes if clusters shared heads.
                while heads.len() < want.min(n) {
                    heads.insert(rng.random_range(0..n));
                }
                heads
            }
        };
        assert!(
            surveyors.len() >= 2,
            "need at least 2 Surveyors so they can position each other"
        );

        // Malicious assignment among non-Surveyors.
        let civilians: Vec<usize> = (0..n).filter(|i| !surveyors.contains(i)).collect();
        let mal_count = ((n as f64) * config.malicious_fraction).round() as usize;
        let malicious: BTreeSet<usize> =
            sample_indices(&mut rng, civilians.len(), mal_count.min(civilians.len()))
                .into_iter()
                .map(|i| civilians[i])
                .collect();

        // Neighbor sets: Surveyors use each other exclusively; everyone
        // else draws the paper's 64-neighbor close/far mix from the whole
        // population — or, above [`NEIGHBOR_CANDIDATE_CAP`], from a
        // bounded per-node candidate sample so construction stays O(n)
        // per node instead of O(n²) total. Both paper-scale populations
        // sit below the cap, so their candidate pools are the full scan.
        let mut neighbors = Vec::with_capacity(n);
        for node in 0..n {
            let candidates: Vec<(usize, f64)> =
                if surveyors.contains(&node) || config.embed_against_surveyors_only {
                    surveyors
                        .iter()
                        .filter(|&&s| s != node)
                        .map(|&s| (s, network.base_rtt(node, s)))
                        .collect()
                } else if n - 1 <= NEIGHBOR_CANDIDATE_CAP {
                    (0..n)
                        .filter(|&p| p != node)
                        .map(|p| (p, network.base_rtt(node, p)))
                        .collect()
                } else {
                    // Distinct draws from a per-node stream: deterministic
                    // in (seed, node), independent of construction order.
                    let mut pool_rng = SimRng::from_stream(seed, streams::NCND, node as u64);
                    let mut pool = BTreeSet::new();
                    while pool.len() < NEIGHBOR_CANDIDATE_SAMPLE {
                        let p = pool_rng.random_range(0..n);
                        if p != node {
                            pool.insert(p);
                        }
                    }
                    pool.into_iter()
                        .map(|p| (p, network.base_rtt(node, p)))
                        .collect()
                };
            neighbors.push(select_neighbors(&candidates, &vivaldi, &mut rng));
        }

        let backend = Vivaldi {
            config: vivaldi,
            population: n,
            defense: DefenseConfig::off(),
            eclipse: EclipsePlan::none(),
            replacement_draws: 0,
        };
        SecureDriver::assemble(
            config,
            backend,
            network,
            (surveyors, malicious),
            neighbors,
            rng,
        )
    }

    /// Arm (or disarm) the VerLoc-style cross-verification defense.
    /// Takes effect from the next tick; the off config is the paper's
    /// system.
    ///
    /// # Panics
    /// Panics on an invalid configuration (see
    /// [`DefenseConfig::validate`]).
    pub fn set_defense(&mut self, defense: DefenseConfig) {
        defense.validate();
        self.backend.defense = defense;
    }

    /// Apply a registrar-poisoning plan: victims' current neighbor sets
    /// are re-steered toward attacker nodes immediately, and future
    /// replacement draws are steered with the plan's strength. Surveyor
    /// victims are ignored — their §3.3 isolation invariant (Surveyors
    /// embed only among themselves) outranks the poisoning model. The
    /// empty plan is a bit-identical no-op.
    pub fn set_eclipse(&mut self, plan: EclipsePlan) {
        for node in 0..self.len() {
            if !self.surveyors().contains(&node) {
                plan.poison_neighbors(node, &mut self.peers[node]);
            }
        }
        self.backend.eclipse = plan;
    }

    /// A node's current neighbor set.
    pub fn neighbors_of(&self, node: usize) -> &[usize] {
        &self.peers[node]
    }
}

#[cfg(test)]
mod tests {
    use crate::driver::tests::{vivaldi, vivaldi_scenario};
    use crate::scenario::SurveyorPlacement;
    use crate::vivaldi_driver::VivaldiSimulation;
    use ices_attack::VivaldiIsolationAttack;
    use ices_core::EmConfig;
    use ices_netsim::{ChurnModel, FaultPlan};

    #[test]
    fn attack_with_detection_yields_confusion_counts() {
        let mut sim = vivaldi(7);
        sim.run_clean(5);
        sim.calibrate_surveyors(&EmConfig::default());
        sim.arm_detection();
        let target = sim.normal_nodes()[0];
        let attack = VivaldiIsolationAttack::new(
            sim.malicious().iter().copied(),
            sim.coordinate(target).clone(),
            100.0,
            7,
        );
        sim.run(3, &attack, false);
        let c = &sim.report().confusion;
        assert!(c.positives() > 0, "attack steps should have been observed");
        assert!(c.negatives() > 0);
        assert!(
            c.tpr() > 0.5,
            "the blatant isolation attack should mostly be caught, tpr = {}",
            c.tpr()
        );
    }

    #[test]
    fn detection_off_scenario_keeps_everyone_plain() {
        let mut cfg = vivaldi_scenario(8);
        cfg.detection = false;
        let mut sim = VivaldiSimulation::new(cfg);
        sim.run_clean(3);
        sim.calibrate_surveyors(&EmConfig::default());
        sim.arm_detection(); // no-op
        assert!((0..sim.len()).all(|n| !sim.is_secured(n)));
    }

    #[test]
    fn forget_coordinates_resets_positions() {
        let mut sim = vivaldi(9);
        sim.run_clean(3);
        let moved = ices_coord::vector::norm(sim.coordinate(0).position());
        assert!(moved > 0.0);
        sim.forget_coordinates();
        // Back to the bootstrap state: origin position, initial height.
        assert_eq!(sim.coordinate(0).position(), &[0.0, 0.0]);
        assert_eq!(
            sim.coordinate(0).magnitude(),
            ices_vivaldi::VivaldiConfig::paper_default().initial_height_ms
        );
    }

    #[test]
    fn full_surveyor_outage_falls_back_to_stale_filters() {
        let mut sim = vivaldi(16);
        sim.run_clean(5);
        sim.calibrate_surveyors(&EmConfig::default());
        sim.arm_detection();
        // Crash every Surveyor forever and make the network lossy enough
        // (~97% terminal failure per tick even after retries) that
        // detectors starve and ask for refreshes.
        let mut plan = FaultPlan::lossy(0.7, 0.29);
        let surveyor_ids: Vec<usize> = sim.surveyors().iter().copied().collect();
        for id in surveyor_ids {
            plan = plan.with_node_churn(id, ChurnModel::new(u64::MAX, 0.999_999));
        }
        sim.set_fault_plan(plan);
        sim.run(8, &ices_attack::HonestWorld, false);
        assert!(
            sim.report().faults.coasted_steps > 0,
            "nearly every secured step should coast under this plan"
        );
        assert!(
            sim.report().faults.stale_filter_fallbacks > 0,
            "with all Surveyors down, refresh requests must fall back to stale filters"
        );
    }

    #[test]
    fn kmeans_placement_produces_surveyors() {
        let mut cfg = vivaldi_scenario(11);
        cfg.surveyors = SurveyorPlacement::KMeansHeads { fraction: 0.1 };
        let sim = VivaldiSimulation::new(cfg);
        assert_eq!(sim.surveyors().len(), 5);
    }
}
