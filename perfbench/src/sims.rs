//! The three simulator workloads: one full secured cell of the paper's
//! evaluation (construct, clean phase, `calibrate_surveyors`,
//! `arm_detection`, attack phase with detection on, `accuracy_report`,
//! `report`), repeated until the time budget is spent.
//!
//! A run cycles over [`SCENARIOS`] scenarios derived from its seed (a
//! topology, malicious set and fault draw each), so that its figures
//! average over several inputs rather than resting on one; every
//! scenario runs at least twice, and its counts must repeat exactly.
//!
//! Phases are driven one pass at a time (`run(1, …)` is the same
//! computation as one iteration of `run(n, …)`), so every pass is timed
//! from outside and its duration is a latency sample.

use crate::trace::Tracer;
use crate::{layers, median, peak_rss_mb, ratio, Args, Metrics, Outcome};
use ices_attack::{Adversary, NpsCollusionAttack, VivaldiIsolationAttack};
use ices_coord::Coordinate;
use ices_core::{EmConfig, SurveyorRegistry};
use ices_netsim::{ChurnModel, FaultPlan, Network};
use ices_obs::Journal;
use ices_sim::experiments::detection::NPS_DRAG_BLATANT;
use ices_sim::experiments::Scale;
use ices_sim::{
    DetectionReport, NpsSimulation, ScenarioConfig, SurveyorPlacement, TopologyKind,
    VivaldiSimulation,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq)]
pub enum Engine {
    Vivaldi,
    Nps,
}

pub struct Spec {
    pub name: &'static str,
    pub engine: Engine,
    pub topology: fn() -> TopologyKind,
    /// The chaos sweep's mid-grid fault plan.
    pub faults: bool,
    /// Stream the obs journal to a file.
    pub journal: bool,
}

pub fn spec(name: &str) -> Option<Spec> {
    let s = match name {
        "vivaldi-king-attack" => Spec {
            name: "vivaldi-king-attack",
            engine: Engine::Vivaldi,
            topology: TopologyKind::king_paper,
            faults: false,
            journal: false,
        },
        "nps-planetlab-attack" => Spec {
            name: "nps-planetlab-attack",
            engine: Engine::Nps,
            topology: TopologyKind::planetlab_paper,
            faults: false,
            journal: false,
        },
        "vivaldi-streamed-chaos" => Spec {
            name: "vivaldi-streamed-chaos",
            engine: Engine::Vivaldi,
            topology: || TopologyKind::streamed_king(CHAOS_NODES),
            faults: true,
            journal: true,
        },
        _ => return None,
    };
    Some(s)
}

/// Population of the streamed chaos topology.
const CHAOS_NODES: usize = 2_000;

/// 10% probe loss, 2.5% timeouts, 5% churn per 16-tick epoch.
fn chaos_plan() -> FaultPlan {
    FaultPlan::lossy(0.10, 0.025).with_churn(ChurnModel::new(16, 0.05))
}

fn scenario(spec: &Spec, seed: u64) -> ScenarioConfig {
    let paper = Scale::paper();
    let (clean, attack) = match spec.engine {
        Engine::Vivaldi => (paper.clean_passes, paper.measure_passes),
        Engine::Nps => (paper.nps_clean_rounds, paper.nps_measure_rounds),
    };
    ScenarioConfig {
        seed,
        topology: (spec.topology)(),
        surveyors: SurveyorPlacement::Random { fraction: 0.08 },
        malicious_fraction: 0.2,
        alpha: 0.05,
        detection: true,
        clean_cycles: clean,
        attack_cycles: attack,
        embed_against_surveyors_only: false,
    }
}

/// The two simulations behind one interface.
pub enum Sim {
    Vivaldi(VivaldiSimulation),
    Nps(NpsSimulation),
}

macro_rules! both {
    ($self:expr, $s:ident => $e:expr) => {
        match $self {
            Sim::Vivaldi($s) => $e,
            Sim::Nps($s) => $e,
        }
    };
}

impl Sim {
    fn new(engine: Engine, config: ScenarioConfig) -> Self {
        match engine {
            Engine::Vivaldi => Sim::Vivaldi(VivaldiSimulation::new(config)),
            Engine::Nps => Sim::Nps(NpsSimulation::new(config)),
        }
    }
    pub fn len(&self) -> usize {
        both!(self, s => s.len())
    }
    /// Neighbors (Vivaldi) or reference points (NPS) of `node`.
    pub fn peers_of(&self, node: usize) -> &[usize] {
        match self {
            Sim::Vivaldi(s) => s.neighbors_of(node),
            Sim::Nps(s) => s.reference_points_of(node),
        }
    }
    pub fn network(&self) -> &Network {
        both!(self, s => s.network())
    }
    pub fn coordinate(&self, node: usize) -> &Coordinate {
        both!(self, s => s.coordinate(node))
    }
    pub fn registry(&self) -> &SurveyorRegistry {
        both!(self, s => s.registry())
    }
    pub fn is_malicious(&self, node: usize) -> bool {
        both!(self, s => s.malicious().contains(&node))
    }
    fn normal_nodes(&self) -> Vec<usize> {
        both!(self, s => s.normal_nodes())
    }
    fn is_secured(&self, node: usize) -> bool {
        both!(self, s => s.is_secured(node))
    }
    fn set_fault_plan(&mut self, plan: FaultPlan) {
        both!(self, s => s.set_fault_plan(plan))
    }
    fn enable_journal(&mut self, journal: Journal) {
        both!(self, s => s.enable_journal(journal))
    }
    fn run_clean_pass(&mut self) {
        both!(self, s => s.run_clean(1))
    }
    fn run_pass(&mut self, adversary: &dyn Adversary) {
        both!(self, s => s.run(1, adversary, false))
    }
    fn calibrate(&mut self) {
        both!(self, s => s.calibrate_surveyors(&EmConfig::default()))
    }
    fn arm(&mut self) {
        both!(self, s => s.arm_detection())
    }
    fn accuracy(&mut self, pairs: usize) -> ices_sim::AccuracyReport {
        both!(self, s => s.accuracy_report(pairs))
    }
    fn report(&self) -> DetectionReport {
        both!(self, s => s.report())
    }
    fn finish_journal(&mut self) {
        both!(self, s => { s.finish_journal(); })
    }
    /// Steps one pass schedules: every node probes each of its peers.
    pub fn steps_per_pass(&self) -> u64 {
        (0..self.len()).map(|n| self.peers_of(n).len() as u64).sum()
    }
    /// Normal nodes running the detector.
    fn armed(&self) -> impl Iterator<Item = usize> + '_ {
        self.normal_nodes()
            .into_iter()
            .filter(|&n| self.is_secured(n))
    }
    pub fn armed_nodes(&self) -> usize {
        self.armed().count()
    }
    /// Steps one pass of the attack phase vets: the armed nodes'.
    fn vetted_per_pass(&self) -> u64 {
        self.armed().map(|n| self.peers_of(n).len() as u64).sum()
    }

    /// The paper's attack for this simulation, built as the detection
    /// experiments build it.
    fn attack(&self, seed: u64) -> Box<dyn Adversary> {
        match self {
            Sim::Vivaldi(s) => {
                let target = s.normal_nodes()[0];
                let radius = s.network().median_base_rtt() / 2.0;
                Box::new(VivaldiIsolationAttack::new(
                    s.malicious().iter().copied(),
                    s.coordinate(target).clone(),
                    radius.max(20.0),
                    seed ^ 0xA77AC4,
                ))
            }
            Sim::Nps(s) => {
                let mut attack = NpsCollusionAttack::new(
                    s.malicious().iter().copied(),
                    8,
                    NPS_DRAG_BLATANT,
                    0.5,
                    seed ^ 0x4E5053,
                );
                attack.observe_hierarchy(&s.serving_map(), &s.layer_members());
                Box::new(attack)
            }
        }
    }
}

/// Everything one cell measured, plus the counts the checks compare.
pub struct Cell {
    pub setup_s: f64,
    pub clean_pass_s: Vec<f64>,
    pub attack_pass_s: Vec<f64>,
    pub clean_s: f64,
    pub attack_s: f64,
    pub calibrate_s: f64,
    pub arm_s: f64,
    pub accuracy_s: f64,
    pub finish_journal_s: f64,
    /// From the end of set-up through `report` (and `finish_journal`).
    pub cell_s: f64,
    pub clean_steps: u64,
    pub attack_steps: u64,
    /// Attack-phase steps of armed normal nodes: what detection vets.
    pub scheduled_vetted: u64,
    pub report: DetectionReport,
    pub median_rel_error: f64,
    pub journal_bytes: u64,
}

/// The simulation and attack as a cell left them: the traced run takes
/// the layer timings' inputs from here.
pub struct Leftover {
    pub sim: Sim,
    pub adversary: Box<dyn Adversary>,
}

impl Cell {
    pub fn vetted(&self) -> u64 {
        let c = &self.report.confusion;
        c.true_positives + c.false_positives + c.true_negatives + c.false_negatives
    }

    /// TP / (TP + FN) and FP / (FP + TN).
    pub fn rates(&self) -> (f64, f64) {
        let c = &self.report.confusion;
        (
            ratio(
                c.true_positives as f64,
                (c.true_positives + c.false_negatives) as f64,
            ),
            ratio(
                c.false_positives as f64,
                (c.false_positives + c.true_negatives) as f64,
            ),
        )
    }

    /// Every count that must repeat exactly for a given seed.
    fn fingerprint(&self) -> Vec<u64> {
        let r = &self.report;
        let c = &r.confusion;
        let f = &r.faults;
        vec![
            c.true_positives,
            c.false_positives,
            c.true_negatives,
            c.false_negatives,
            r.reprieves,
            r.replacements,
            r.filter_refreshes,
            f.lost_probes,
            f.timed_out_probes,
            f.peer_down_probes,
            f.retried_probes,
            f.coasted_steps,
            f.evictions,
            f.node_down_ticks,
            r.adversary.active_lies,
            self.journal_bytes,
            self.clean_steps,
            self.attack_steps,
            self.median_rel_error.to_bits(),
        ]
    }
}

/// Scenarios a run of one seed cycles over.
pub const SCENARIOS: u64 = 3;

/// Seed of scenario `k` of a run with seed `seed`: runs of different
/// seeds share no scenario.
pub fn scenario_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(SCENARIOS).wrapping_add(k % SCENARIOS)
}

/// Build the simulation for `spec`: the set-up `setup_s` times.
fn setup(spec: &Spec, seed: u64, journal_path: Option<&str>) -> Sim {
    let mut sim = Sim::new(spec.engine, scenario(spec, seed));
    if spec.faults {
        sim.set_fault_plan(chaos_plan());
    }
    if let Some(path) = journal_path {
        let journal = Journal::to_file(path).unwrap_or_else(|e| panic!("journal {path}: {e}"));
        sim.enable_journal(journal);
    }
    sim
}

/// Run one cell of scenario `seed`. `journal` overrides the spec (the
/// journal-off re-run).
pub fn run_cell(
    spec: &Spec,
    args: &Args,
    seed: u64,
    tracer: &mut Tracer,
    journal: bool,
) -> (Cell, Leftover) {
    let scale = Scale::paper();
    let (clean_passes, attack_passes) = match spec.engine {
        Engine::Vivaldi => (scale.clean_passes, scale.measure_passes),
        Engine::Nps => (scale.nps_clean_rounds, scale.nps_measure_rounds),
    };
    let journal_path = journal.then(|| {
        let _ = std::fs::create_dir_all(&args.scratch);
        format!(
            "{}/{}-{}.jsonl",
            args.scratch,
            spec.name,
            std::process::id()
        )
    });

    let (mut sim, setup_s) = tracer.time("setup", || setup(spec, seed, journal_path.as_deref()));
    let cell_start = tracer.enter("cell");

    let clean_steps = sim.steps_per_pass() * clean_passes as u64;
    let phase = tracer.enter("run_clean");
    let mut clean_pass_s = Vec::with_capacity(clean_passes);
    for _ in 0..clean_passes {
        clean_pass_s.push(tracer.time("pass", || sim.run_clean_pass()).1);
    }
    let clean_s = tracer.exit(phase);

    let calibrate_s = tracer.time("calibrate_surveyors", || sim.calibrate()).1;
    let arm_s = tracer.time("arm_detection", || sim.arm()).1;
    let (adversary, _) = tracer.time("attack_new", || sim.attack(seed));

    let attack_steps = sim.steps_per_pass() * attack_passes as u64;
    let scheduled_vetted = sim.vetted_per_pass() * attack_passes as u64;
    let phase = tracer.enter("run_attack");
    let mut attack_pass_s = Vec::with_capacity(attack_passes);
    for _ in 0..attack_passes {
        attack_pass_s.push(tracer.time("pass", || sim.run_pass(&*adversary)).1);
    }
    let attack_s = tracer.exit(phase);

    let (accuracy, accuracy_s) =
        tracer.time("accuracy_report", || sim.accuracy(scale.pairs_per_node));
    let (report, _) = tracer.time("report", || sim.report());
    let finish_journal_s = tracer.time("finish_journal", || sim.finish_journal()).1;
    let cell_s = tracer.exit(cell_start);

    let journal_bytes = journal_path.as_ref().map_or(0, |p| {
        let bytes = std::fs::metadata(p).map_or(0, |m| m.len());
        let _ = std::fs::remove_file(p);
        bytes
    });
    let median_rel_error = accuracy.ecdf().map_or(f64::NAN, |e| e.median());
    let cell = Cell {
        setup_s,
        clean_pass_s,
        attack_pass_s,
        clean_s,
        attack_s,
        calibrate_s,
        arm_s,
        accuracy_s,
        finish_journal_s,
        cell_s,
        clean_steps,
        attack_steps,
        scheduled_vetted,
        report,
        median_rel_error,
        journal_bytes,
    };
    (cell, Leftover { sim, adversary })
}

/// The output checks of one cell against the workload's invariants and,
/// when given, the first cell of the same scenario (same seed ⇒ same counts).
pub fn check(spec: &Spec, cell: &Cell, first: Option<&Cell>) -> Result<(), String> {
    let vetted = cell.vetted();
    let f = &cell.report.faults;
    if spec.faults {
        // A lost, timed-out or peer-down probe leaves a vetting slot
        // without a sample; nothing else may.
        if vetted > cell.scheduled_vetted {
            return Err(format!(
                "vetted {vetted} > scheduled {}",
                cell.scheduled_vetted
            ));
        }
    } else if vetted != cell.scheduled_vetted {
        return Err(format!(
            "TP+FP+TN+FN = {vetted} but armed nodes scheduled {} vetted steps",
            cell.scheduled_vetted
        ));
    }
    if !spec.faults && f.total_failed_probes() + f.retried_probes + f.node_down_ticks != 0 {
        return Err("fault counters moved on a clean network".to_string());
    }
    if spec.faults && f.retried_probes == 0 {
        return Err("fault plan active but no probe was retried".to_string());
    }
    if cell.report.adversary.active_lies == 0 {
        return Err("the attack injected no lies".to_string());
    }
    if spec.journal != (cell.journal_bytes > 0) {
        return Err(format!(
            "journal bytes {} with journal={}",
            cell.journal_bytes, spec.journal
        ));
    }
    // Detection quality is checked, not timed: the detector must catch
    // most lies and pass most honest steps.
    let (tpr, fpr) = cell.rates();
    if !(tpr >= 0.5 && fpr <= 0.5) {
        return Err(format!("detection TPR {tpr:.4}, FPR {fpr:.4}"));
    }
    if !(cell.median_rel_error.is_finite() && cell.median_rel_error > 0.0) {
        return Err(format!("median relative error {}", cell.median_rel_error));
    }
    if let Some(first) = first {
        if first.fingerprint() != cell.fingerprint() {
            return Err(format!(
                "counts differ between cells of one scenario: {:?} vs {:?}",
                first.fingerprint(),
                cell.fingerprint()
            ));
        }
    }
    Ok(())
}

pub fn run(spec: &Spec, args: &Args) -> Outcome {
    if args.trace {
        return layers::sim_traced(spec, args);
    }
    let start = Instant::now();
    let mut tracer = Tracer::new(false);
    let mut cells: Vec<Cell> = Vec::new();
    let mut setups = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut correct = true;
    loop {
        let began = Instant::now();
        // The leftover simulation is dropped at once, so peak RSS is one
        // cell's.
        let k = cells.len() as u64 % SCENARIOS;
        let seed = scenario_seed(args.seed, k);
        match catch_unwind(AssertUnwindSafe(|| {
            run_cell(spec, args, seed, &mut tracer, spec.journal).0
        })) {
            Ok(cell) => {
                let steps = cell.clean_steps + cell.attack_steps;
                attempted += steps;
                // The scenario's first cell, if this is a repeat.
                let first = cells.get(k as usize).filter(|_| cells.len() as u64 >= SCENARIOS);
                if let Err(e) = check(spec, &cell, first) {
                    eprintln!("{}: CHECK FAILED: {e}", spec.name);
                    correct = false;
                    failed += steps;
                }
                eprintln!(
                    "{}: cell {} (scenario seed {seed}): setup {:.4} s, clean {:.0} ops/s, secured {:.0} ops/s, cell {:.4} s",
                    spec.name,
                    cells.len(),
                    cell.setup_s,
                    cell.clean_steps as f64 / cell.clean_s,
                    cell.vetted() as f64 / cell.attack_s,
                    cell.cell_s
                );
                setups.push(cell.setup_s);
                cells.push(cell);
            }
            Err(_) => {
                eprintln!("{}: CHECK FAILED: cell panicked", spec.name);
                correct = false;
                let steps = cells.first().map_or(1, |c| c.clean_steps + c.attack_steps);
                attempted += steps;
                failed += steps;
                break;
            }
        }
        // Every scenario twice; then another cell only if it fits the
        // budget.
        let last = began.elapsed().as_secs_f64();
        if cells.len() as u64 >= 2 * SCENARIOS
            && start.elapsed().as_secs_f64() + last > args.seconds
        {
            break;
        }
    }
    // setup_s is a median over several set-ups: top up with set-up-only
    // repetitions when few cells fit in the budget.
    let topup = Instant::now();
    while correct
        && (setups.len() < MIN_SETUPS || (setups.len() < 50 && topup.elapsed().as_secs_f64() < 1.0))
    {
        let t = Instant::now();
        let seed = scenario_seed(args.seed, setups.len() as u64);
        let sim = setup(spec, seed, None);
        setups.push(t.elapsed().as_secs_f64());
        drop(sim);
    }
    let mut m = Metrics::default();
    if let Some(c) = cells.first() {
        // Rates and latencies are per pass, so a burst of interference
        // from outside the process moves a few samples of the median,
        // not all of them.
        let pass_rates = |steps: fn(&Cell) -> u64, passes: fn(&Cell) -> &[f64]| -> Vec<f64> {
            cells
                .iter()
                .flat_map(|c| {
                    let per_pass = steps(c) as f64 / passes(c).len() as f64;
                    passes(c).iter().map(move |s| per_pass / s)
                })
                .collect()
        };
        let pass_us = |passes: fn(&Cell) -> &[f64]| -> Vec<f64> {
            cells
                .iter()
                .flat_map(|c| passes(c).iter().map(|s| s * 1e6))
                .collect()
        };
        let mut clean_rate = pass_rates(|c| c.clean_steps, |c| &c.clean_pass_s);
        let mut secured_rate = pass_rates(|c| c.scheduled_vetted, |c| &c.attack_pass_s);
        let mut clean_us = pass_us(|c| &c.clean_pass_s);
        let mut secured_us = pass_us(|c| &c.attack_pass_s);
        let mut cell_s: Vec<f64> = cells.iter().map(|c| c.cell_s).collect();
        let conf = &c.report.confusion;
        m.set("setup_s", median(&mut setups), "s");
        m.set("clean_ops_per_s", median(&mut clean_rate), "ops/s");
        m.set("secured_ops_per_s", median(&mut secured_rate), "ops/s");
        m.set("cell_s", median(&mut cell_s), "s");
        m.set("clean_p50_us", median(&mut clean_us), "us");
        m.set("secured_p50_us", median(&mut secured_us), "us");
        m.set("peak_rss_mb", peak_rss_mb(), "MiB");
        println!(
            "{}: {} cells, {} set-ups; scenario 0: confusion TP {} FP {} TN {} FN {}; median rel. error {:.4}",
            spec.name,
            cells.len(),
            setups.len(),
            conf.true_positives,
            conf.false_positives,
            conf.true_negatives,
            conf.false_negatives,
            c.median_rel_error
        );
    }
    Outcome {
        correct,
        attempted: attempted.max(1),
        failed,
        metrics: m,
    }
}

const MIN_SETUPS: usize = 5;
