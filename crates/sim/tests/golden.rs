//! Absolute output pins for both secured drivers.
//!
//! The determinism, chaos, adversary and obs-invariance suites compare a
//! run with another run of the *same* code (1 thread vs 4, journal on vs
//! off), so a change that shifts every run the same way passes them.
//! This suite pins each scenario's outputs to a recorded value: it folds
//! the `to_bits` of every coordinate component, every trace sample, the
//! full `DetectionReport` (its `Debug` rendering, which prints every f64
//! in shortest round-trip form) and the in-memory journal bytes into one
//! `u64`, and asserts it.
//!
//! A deliberate behavior change must update the affected constants and
//! say why; a refactor must leave every one of them unchanged.

use ices_attack::{
    DefenseConfig, EclipseAttack, NpsCollusionAttack, SlowDriftAttack, SybilSwarmAttack,
    VivaldiIsolationAttack,
};
use ices_coord::Coordinate;
use ices_core::{EmConfig, StateSpaceParams};
use ices_netsim::{ChurnModel, EclipsePlan, FaultPlan};
use ices_obs::Journal;
use ices_sim::metrics::DetectionReport;
use ices_sim::scenario::{ScenarioConfig, SurveyorPlacement, TopologyKind};
use ices_sim::trace::TraceRing;
use ices_sim::{NpsSimulation, VivaldiSimulation};

/// 64-bit FNV-1a over everything a run exposes.
struct Fold(u64);

impl Fold {
    fn new() -> Self {
        Fold(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

fn digest<'a>(
    coordinates: impl Iterator<Item = &'a Coordinate>,
    traces: &[TraceRing],
    report: &DetectionReport,
    journal: &[u8],
) -> u64 {
    let mut fold = Fold::new();
    for c in coordinates {
        for &x in c.position() {
            fold.word(x.to_bits());
        }
        fold.word(c.height().to_bits());
    }
    for trace in traces {
        fold.word(trace.len() as u64);
        for &x in trace.iter() {
            fold.word(x.to_bits());
        }
    }
    fold.bytes(format!("{report:?}").as_bytes());
    fold.word(journal.len() as u64);
    fold.bytes(journal);
    fold.0
}

fn vivaldi_digest(sim: &mut VivaldiSimulation) -> u64 {
    let journal = sim.finish_journal().unwrap_or_default();
    let report = sim.report();
    digest(
        (0..sim.len()).map(|i| sim.coordinate(i)),
        sim.traces(),
        &report,
        &journal,
    )
}

fn nps_digest(sim: &mut NpsSimulation) -> u64 {
    let journal = sim.finish_journal().unwrap_or_default();
    let report = sim.report();
    digest(
        (0..sim.len()).map(|i| sim.coordinate(i)),
        sim.traces(),
        &report,
        &journal,
    )
}

fn scenario(seed: u64) -> ScenarioConfig {
    ScenarioConfig {
        seed,
        topology: TopologyKind::small_planetlab(70),
        surveyors: SurveyorPlacement::Random { fraction: 0.1 },
        malicious_fraction: 0.2,
        alpha: 0.05,
        detection: true,
        clean_cycles: 6,
        attack_cycles: 3,
        embed_against_surveyors_only: false,
    }
}

fn vivaldi(cfg: ScenarioConfig) -> VivaldiSimulation {
    let mut sim = VivaldiSimulation::new(cfg);
    sim.enable_journal(Journal::in_memory());
    sim
}

fn nps(cfg: ScenarioConfig) -> NpsSimulation {
    let mut sim = NpsSimulation::new(cfg);
    sim.enable_journal(Journal::in_memory());
    sim
}

fn isolation(sim: &VivaldiSimulation, seed: u64) -> VivaldiIsolationAttack {
    VivaldiIsolationAttack::new(
        sim.malicious().iter().copied(),
        sim.coordinate(sim.normal_nodes()[0]).clone(),
        50.0,
        seed,
    )
}

fn collusion(sim: &NpsSimulation, seed: u64) -> NpsCollusionAttack {
    let mut attack = NpsCollusionAttack::new(sim.malicious().iter().copied(), 8, 3.0, 0.5, seed);
    attack.observe_hierarchy(&sim.serving_map(), &sim.layer_members());
    attack
}

/// Loss, timeouts, global churn and one permanently crashed node.
fn chaos_plan(epoch_ticks: u64, crashed: usize) -> FaultPlan {
    FaultPlan::lossy(0.1, 0.05)
        .with_churn(ChurnModel::new(epoch_ticks, 0.1))
        .with_node_churn(crashed, ChurnModel::new(u64::MAX, 0.999_999))
}

/// Every Surveyor permanently down.
fn blackout(surveyors: &std::collections::BTreeSet<usize>) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for &s in surveyors {
        plan = plan.with_node_churn(s, ChurnModel::permanent_outage());
    }
    plan
}

/// Clean phase, calibration and arming: the prefix of every attack cell.
fn vivaldi_armed(cfg: ScenarioConfig) -> VivaldiSimulation {
    let mut sim = vivaldi(cfg);
    sim.run_clean(6);
    sim.calibrate_surveyors(&EmConfig::default());
    sim.arm_detection();
    sim
}

fn nps_armed(cfg: ScenarioConfig) -> NpsSimulation {
    let mut sim = nps(cfg);
    sim.run_clean(6);
    sim.calibrate_surveyors(&EmConfig::default());
    sim.arm_detection();
    sim
}

fn assert_pinned(name: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{name}: output digest {got:#018x}, pinned {want:#018x}"
    );
}

#[test]
fn vivaldi_clean_and_isolation_attack() {
    let mut sim = vivaldi_armed(scenario(101));
    let attack = isolation(&sim, 101);
    sim.run(3, &attack, true);
    assert!(sim.report().adversary.active_lies > 0);
    assert_pinned(
        "vivaldi isolation",
        vivaldi_digest(&mut sim),
        0xc5c0_3e19_815c_2fcb,
    );
}

#[test]
fn nps_collusion_attack() {
    let mut sim = nps_armed(scenario(103));
    let attack = collusion(&sim, 103);
    sim.run(3, &attack, true);
    assert_pinned("nps collusion", nps_digest(&mut sim), 0xb1a9_c00f_1ae3_8264);
}

#[test]
fn vivaldi_chaos() {
    let mut sim = vivaldi(scenario(107));
    sim.set_fault_plan(chaos_plan(16, sim.normal_nodes()[1]));
    sim.run_clean(6);
    sim.calibrate_surveyors(&EmConfig::default());
    sim.arm_detection();
    let attack = isolation(&sim, 107);
    sim.run(3, &attack, true);
    assert!(sim.report().faults.total_failed_probes() > 0);
    assert_pinned(
        "vivaldi chaos",
        vivaldi_digest(&mut sim),
        0xb0fa_7ae4_6c46_c75e,
    );
}

#[test]
fn nps_chaos() {
    let mut sim = nps(scenario(67));
    sim.set_fault_plan(chaos_plan(2, sim.normal_nodes()[1]));
    sim.run_clean(6);
    sim.calibrate_surveyors(&EmConfig::default());
    sim.arm_detection();
    let attack = collusion(&sim, 67);
    sim.run(3, &attack, true);
    assert!(sim.report().faults.total_failed_probes() > 0);
    assert_pinned("nps chaos", nps_digest(&mut sim), 0x7c96_9a8b_1960_349b);
}

#[test]
fn vivaldi_sybil_swarm() {
    let mut sim = vivaldi_armed(scenario(109));
    let attack = SybilSwarmAttack::new(
        sim.malicious().iter().copied(),
        800.0,
        10.0,
        sim.coordinate(0).dims(),
        109,
    );
    sim.run(3, &attack, true);
    assert_pinned(
        "vivaldi sybil",
        vivaldi_digest(&mut sim),
        0xaf05_0f9a_2d14_5d2e,
    );
}

#[test]
fn vivaldi_eclipse_with_defense() {
    let mut sim = vivaldi_armed(scenario(113));
    sim.set_defense(DefenseConfig::cross_verification(113));
    sim.set_eclipse(EclipsePlan::new(
        sim.normal_nodes(),
        sim.malicious().iter().copied(),
        0.6,
        113,
    ));
    let attack = EclipseAttack::new(
        sim.malicious().iter().copied(),
        sim.normal_nodes(),
        120.0,
        113,
    );
    sim.run(3, &attack, true);
    assert!(sim.report().adversary.cross_checks > 0);
    assert_pinned(
        "vivaldi eclipse",
        vivaldi_digest(&mut sim),
        0xee13_776c_68f4_d9ea,
    );
}

#[test]
fn vivaldi_slow_drift() {
    let mut sim = vivaldi_armed(scenario(127));
    let attack =
        SlowDriftAttack::new(sim.malicious().iter().copied(), 0.5, 127).starting_at(sim.ticks());
    sim.run(3, &attack, true);
    assert_pinned(
        "vivaldi drift",
        vivaldi_digest(&mut sim),
        0x46f3_f4dc_6a68_ca97,
    );
}

#[test]
fn detection_off() {
    let cfg = ScenarioConfig {
        detection: false,
        ..scenario(131)
    };
    let mut sim = vivaldi_armed(cfg.clone());
    let attack = isolation(&sim, 131);
    sim.run(3, &attack, true);
    assert_pinned(
        "vivaldi detection off",
        vivaldi_digest(&mut sim),
        0xd73d_771e_fb3b_4c8c,
    );

    let mut sim = nps_armed(cfg);
    let attack = collusion(&sim, 131);
    sim.run(3, &attack, true);
    assert_pinned(
        "nps detection off",
        nps_digest(&mut sim),
        0x0c02_9787_c3e1_e91a,
    );
}

#[test]
fn embed_against_surveyors_only() {
    let cfg = ScenarioConfig {
        embed_against_surveyors_only: true,
        ..scenario(137)
    };
    let mut sim = vivaldi_armed(cfg.clone());
    let attack = isolation(&sim, 137);
    sim.run(3, &attack, true);
    assert_pinned(
        "vivaldi surveyors only",
        vivaldi_digest(&mut sim),
        0xf712_3d03_a188_4c5f,
    );

    let mut sim = nps_armed(cfg);
    let attack = collusion(&sim, 137);
    sim.run(3, &attack, true);
    assert_pinned(
        "nps surveyors only",
        nps_digest(&mut sim),
        0x4b7c_d876_84bf_e412,
    );
}

#[test]
fn vivaldi_registry_ablations() {
    let mut sim = vivaldi(scenario(139));
    sim.run_clean(6);
    sim.calibrate_surveyors(&EmConfig::default());
    sim.transform_registry_params(&mut |p| StateSpaceParams {
        beta: p.beta * 0.5,
        ..p
    });
    sim.shuffle_registry_params();
    sim.set_reprieve_enabled(false);
    sim.arm_detection();
    let attack = isolation(&sim, 139);
    sim.run(3, &attack, true);
    assert_pinned(
        "vivaldi registry ablations",
        vivaldi_digest(&mut sim),
        0xf774_7b39_3256_b97a,
    );
}

#[test]
fn total_surveyor_outage_defers_arms() {
    let mut sim = vivaldi(scenario(149));
    sim.run_clean(4);
    sim.calibrate_surveyors(&EmConfig::default());
    sim.set_fault_plan(blackout(sim.surveyors()));
    sim.arm_detection();
    sim.run_clean(1);
    sim.set_fault_plan(FaultPlan::none());
    let attack = isolation(&sim, 149);
    sim.run(2, &attack, true);
    assert!(sim.report().faults.late_arms > 0);
    assert_pinned(
        "vivaldi outage",
        vivaldi_digest(&mut sim),
        0x17f9_d863_a5d5_8699,
    );

    let mut sim = nps(scenario(151));
    sim.run_clean(4);
    sim.calibrate_surveyors(&EmConfig::default());
    sim.set_fault_plan(blackout(sim.surveyors()));
    sim.arm_detection();
    sim.run_clean(1);
    sim.set_fault_plan(FaultPlan::none());
    let attack = collusion(&sim, 151);
    sim.run(2, &attack, true);
    assert!(sim.report().faults.late_arms > 0);
    assert_pinned("nps outage", nps_digest(&mut sim), 0x47b3_a2be_3b77_502c);
}
