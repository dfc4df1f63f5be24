//! NPS behind the secured driver.
//!
//! Runs the paper's NPS setup: the 4-layer hierarchy with 20 permanent
//! landmarks, per-round downhill-simplex positioning against reference
//! points, NPS's built-in sensitivity-4 filter, Surveyors (all landmarks
//! plus promoted reference points) embedding against trusted nodes only,
//! and the colluding reference-point adversary.
//!
//! Each positioning round is one tick ([`Schedule::Layers`]): the
//! hierarchy's layers sweep in order, so reference points are positioned
//! before the nodes that depend on them, and each member probes all its
//! reference points, buffers the accepted samples, and solves its
//! simplex at the end of its layer's sweep. A node's reference points
//! live in strictly lower layers, which its own layer never mutates, so
//! the sweep's snapshot equals the live state. Probe nonces derive from
//! `(round, node, probe index)` ([`streams::NPSP`], retries
//! [`streams::NPSR`]).

use crate::driver::{Backend, Schedule, SecureDriver};
use crate::scenario::{ScenarioConfig, TopologyKind};
use ices_netsim::Network;
use ices_nps::{Hierarchy, NpsConfig, NpsNode, Role};
use ices_stats::rng::{derive, derive2, SimRng};
use ices_stats::sample::sample_indices;
use ices_stats::streams;
use rand::RngExt;
use std::collections::{BTreeMap, BTreeSet};

/// The NPS backend: hierarchical simplex positioning, one round per
/// tick.
pub struct Nps {
    config: NpsConfig,
    hierarchy: Hierarchy,
}

/// The NPS system simulation.
pub type NpsSimulation = SecureDriver<Nps>;

impl Nps {
    fn serving(&self, node: usize) -> bool {
        matches!(
            self.hierarchy.role[node],
            Role::Landmark | Role::ReferencePoint
        )
    }
}

impl Backend for Nps {
    type Node = NpsNode;

    const NAME: &'static str = "nps";

    fn node(&self, id: usize, seed: u64) -> NpsNode {
        NpsNode::new(id, self.config, seed)
    }

    fn reset(node: &mut NpsNode) {
        node.reset();
    }

    /// Reposition from whatever the round accepted.
    fn finish_round(node: &mut NpsNode) {
        node.finish_round();
    }

    /// Layer groups, ascending; ids ascending within each layer.
    fn schedule(&self) -> Schedule {
        let layer = &self.hierarchy.layer;
        let max_layer = layer.iter().copied().max().unwrap_or(0);
        Schedule::Layers(
            (0..=max_layer)
                .map(|l| (0..layer.len()).filter(|&i| layer[i] == l).collect())
                .collect(),
        )
    }

    fn probe_nonce(round: u64, node: usize, k: usize, attempt: u32) -> u64 {
        let stream = if attempt == 0 {
            derive(streams::NPSP, round)
        } else {
            derive(derive(streams::NPSR, attempt as u64), round)
        };
        derive2(stream, node as u64, k as u64)
    }

    fn join_nonce(node: usize, k: usize) -> u64 {
        derive2(streams::NPSJ, node as u64, k as u64)
    }

    /// Another serving node of the layer above (or none available).
    fn replacement(&mut self, node: usize, peers: &[usize], rng: &mut SimRng) -> Option<usize> {
        let above = self.hierarchy.layer[node].wrapping_sub(1);
        let candidates: Vec<usize> = (0..self.hierarchy.layer.len())
            .filter(|&i| {
                self.hierarchy.layer[i] == above
                    && self.serving(i)
                    && !peers.contains(&i)
                    && i != node
            })
            .collect();
        if candidates.is_empty() {
            return None;
        }
        Some(candidates[rng.random_range(0..candidates.len())])
    }

    /// Surveyors of the layer above, or landmarks (the root of trust).
    fn trusted(&self, node: usize, candidate: usize) -> bool {
        self.hierarchy.layer[candidate] == self.hierarchy.layer[node].wrapping_sub(1)
            || self.hierarchy.role[candidate] == Role::Landmark
    }
}

impl SecureDriver<Nps> {
    /// Build the system with the paper's NPS configuration.
    pub fn new(config: ScenarioConfig) -> Self {
        Self::with_nps_config(config, NpsConfig::paper_default())
    }

    /// Build with explicit NPS parameters (tests use small 2-d spaces).
    ///
    /// # Panics
    /// Panics on invalid configuration or a population too small for the
    /// hierarchy.
    pub fn with_nps_config(config: ScenarioConfig, nps: NpsConfig) -> Self {
        config.validate();
        nps.validate();
        let seed = config.seed;
        let network = match &config.topology {
            TopologyKind::King(kc) => Network::from_king(kc.generate(seed), seed),
            TopologyKind::StreamedKing(kc) => Network::from_king_streamed(kc.clone(), seed),
            TopologyKind::PlanetLab(pc) => Network::from_planetlab(pc.generate(seed), seed),
        };
        let n = network.len();
        let hierarchy = Hierarchy::build(n, &nps, seed);
        let mut rng = SimRng::from_stream(seed, streams::NPSD, 0);

        // Surveyors: every landmark, plus promoted reference points until
        // the configured fraction is met.
        let mut surveyors: BTreeSet<usize> = hierarchy.landmarks().into_iter().collect();
        let want = ((n as f64) * config.surveyors.fraction()).round() as usize;
        let rp_pool: Vec<usize> = (0..n)
            .filter(|&i| hierarchy.role[i] == Role::ReferencePoint)
            .collect();
        if want > surveyors.len() && !rp_pool.is_empty() {
            let extra = (want - surveyors.len()).min(rp_pool.len());
            for idx in sample_indices(&mut rng, rp_pool.len(), extra) {
                surveyors.insert(rp_pool[idx]);
            }
        }

        // Malicious among the rest. The paper's conspirators "behave in a
        // correct and honest way until enough of them become reference
        // points" — their campaign targets the *activation threshold*
        // (5 malicious RPs per layer), not a takeover of every serving
        // slot: place up to threshold+1 malicious nodes into each middle
        // layer's RP slots (budget permitting) and the rest among
        // regular nodes, as in the paper's evaluation.
        let civilians_total = (0..n).filter(|i| !surveyors.contains(i)).count();
        let mal_count =
            (((n as f64) * config.malicious_fraction).round() as usize).min(civilians_total);
        let infiltration_per_layer = ices_attack::nps_collusion::DEFAULT_ACTIVATION_THRESHOLD + 1;
        let mut malicious: BTreeSet<usize> = BTreeSet::new();
        let mut budget = mal_count;
        for l in 1..nps.layers - 1 {
            if budget == 0 {
                break;
            }
            let rp_civilians: Vec<usize> = (0..n)
                .filter(|&i| {
                    !surveyors.contains(&i)
                        && hierarchy.layer[i] == l
                        && hierarchy.role[i] == Role::ReferencePoint
                })
                .collect();
            let take = infiltration_per_layer.min(rp_civilians.len()).min(budget);
            for idx in sample_indices(&mut rng, rp_civilians.len(), take) {
                malicious.insert(rp_civilians[idx]);
            }
            budget -= take;
        }
        let other_civilians: Vec<usize> = (0..n)
            .filter(|i| !surveyors.contains(i) && !malicious.contains(i))
            .collect();
        for idx in sample_indices(
            &mut rng,
            other_civilians.len(),
            budget.min(other_civilians.len()),
        ) {
            malicious.insert(other_civilians[idx]);
        }

        // Effective RP sets: Surveyors position against trusted nodes
        // only — Surveyors of the layer above, topped up with landmarks
        // when short (landmarks are the root of trust; their own sets are
        // already landmarks-only). In the §6 variant normal nodes do the
        // same (a GNP/NPS hybrid, trading accuracy for immunity).
        let landmarks = hierarchy.landmarks();
        let trusted_rps = |node: usize| {
            let layer = hierarchy.layer[node];
            let mut trusted: Vec<usize> = (0..n)
                .filter(|&i| surveyors.contains(&i) && i != node && hierarchy.layer[i] + 1 == layer)
                .collect();
            if trusted.len() < nps.min_rps {
                for &l in &landmarks {
                    if l != node && !trusted.contains(&l) {
                        trusted.push(l);
                    }
                }
            }
            trusted.truncate(nps.rps_per_node);
            trusted
        };
        let reference_points: Vec<Vec<usize>> = (0..n)
            .map(|node| {
                let trusted_only = if surveyors.contains(&node) {
                    hierarchy.role[node] != Role::Landmark
                } else {
                    config.embed_against_surveyors_only
                };
                if trusted_only {
                    trusted_rps(node)
                } else {
                    hierarchy.reference_points[node].clone()
                }
            })
            .collect();

        let backend = Nps {
            config: nps,
            hierarchy,
        };
        SecureDriver::assemble(
            config,
            backend,
            network,
            (surveyors, malicious),
            reference_points,
            rng,
        )
    }

    /// The positioning hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.backend.hierarchy
    }

    /// A node's current effective reference-point set (Surveyors' sets
    /// are restricted to trusted nodes).
    pub fn reference_points_of(&self, node: usize) -> &[usize] {
        &self.peers[node]
    }

    /// The serving map the adversary observes: each landmark/reference
    /// point mapped to its own layer.
    pub fn serving_map(&self) -> BTreeMap<usize, usize> {
        (0..self.len())
            .filter(|&i| self.backend.serving(i))
            .map(|i| (i, self.hierarchy().layer[i]))
            .collect()
    }

    /// Layer membership of non-serving (normal) nodes, as the adversary
    /// observes it.
    pub fn layer_members(&self) -> BTreeMap<usize, Vec<usize>> {
        let hierarchy = self.hierarchy();
        let mut m: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for i in 0..self.len() {
            if hierarchy.role[i] == Role::Regular {
                m.entry(hierarchy.layer[i]).or_default().push(i);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use crate::driver::tests::nps;
    use ices_attack::NpsCollusionAttack;
    use ices_core::EmConfig;
    use ices_netsim::{ChurnModel, FaultPlan};
    use ices_nps::Role;

    #[test]
    fn collusion_attack_is_mostly_detected() {
        let mut sim = nps(6);
        sim.run_clean(5);
        sim.calibrate_surveyors(&EmConfig::default());
        sim.arm_detection();
        let mut attack = NpsCollusionAttack::new(
            sim.malicious().iter().copied(),
            2,   // dims of the test space
            3.0, // drag strength
            0.5,
            9,
        );
        attack.observe_hierarchy(&sim.serving_map(), &sim.layer_members());
        sim.run(3, &attack, false);
        let c = &sim.report().confusion;
        if attack.is_active() && c.positives() > 0 {
            assert!(
                c.tpr() > 0.5,
                "consistent-lie collusion should still be caught: tpr = {}",
                c.tpr()
            );
        }
        // Whether or not the conspiracy activated, honest steps must flow.
        assert!(c.negatives() > 0);
    }

    #[test]
    fn surveyor_evictions_stay_trusted() {
        let mut sim = nps(12);
        // Crash one of a Surveyor's trusted reference points.
        let victim = sim
            .surveyors()
            .iter()
            .find_map(|&s| {
                sim.reference_points_of(s)
                    .iter()
                    .copied()
                    .find(|&rp| sim.hierarchy().role[rp] != Role::Landmark)
            })
            .expect("some surveyor has a non-landmark trusted RP");
        sim.set_fault_plan(
            FaultPlan::none().with_node_churn(victim, ChurnModel::new(u64::MAX, 0.999_999)),
        );
        sim.run_clean(6);
        // Whatever replacements happened, every Surveyor's RP set must
        // still be trusted-only.
        for &s in sim.surveyors() {
            for &rp in sim.reference_points_of(s) {
                assert!(
                    sim.surveyors().contains(&rp),
                    "surveyor {s} now positions against untrusted {rp}"
                );
            }
        }
    }
}
