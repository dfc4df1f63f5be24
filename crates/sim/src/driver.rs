//! The secured simulation driver, shared by both embeddings.
//!
//! The paper runs one protocol in front of two embeddings: Surveyors
//! embedding exclusively among themselves, EM calibration, the
//! closest-Surveyor join, and the Kalman innovation test in front of
//! every honest node. [`SecureDriver`] implements that protocol once. A
//! [`Backend`] supplies only what differs between Vivaldi and NPS:
//! construction (topology, Surveyor and malicious placement, peer sets),
//! the probe and join nonce streams, how a node closes its positioning
//! round, where the round boundary falls ([`Schedule`]), the replacement
//! and eviction pools, and Vivaldi's screening and referral hooks.
//!
//! ## The sweep
//!
//! Every tick runs one or more *sweeps* over a set of nodes, each in
//! four phases:
//!
//! 1. **Snapshot** — every node's `(coordinate, local error)` is copied
//!    into reusable flat buffers ([`CoordSnapshot`]);
//! 2. **Update** — every member probes its peers (retrying lost probes
//!    under fresh nonces), consults the adversary, and steps its own
//!    embedding against the snapshot; secured nodes defer their detector
//!    work. Nodes mutate only themselves, so this phase fans out over
//!    [`ices_par`];
//! 3. **Vet** — the deferred detector events of all members run through
//!    one [`vet_sequences`] sweep of the [`DetectorBank`], bit-identical
//!    to the scalar per-node calls it replaces; a sweep that closes its
//!    members' round then settles each detector round;
//! 4. **Merge** — the per-node effects (traces, confusion counts,
//!    replacements, fault counters, evictions) apply in node order.
//!
//! Probe nonces are pure functions of `(tick, node, probe index)` and
//! every driver RNG draw happens in the node-order merge, so a run is
//! bit-for-bit identical at any worker count, including the sequential
//! `ICES_THREADS=1` path.

use crate::metrics::{AccuracyReport, DetectionReport};
use crate::obs::SimObs;
use crate::scenario::ScenarioConfig;
use crate::snapshot::CoordSnapshot;
use crate::trace::TraceRing;
use ices_attack::Adversary;
use ices_coord::{Coordinate, Embedding, PeerSample};
use ices_core::protocol::RoundAction;
use ices_core::{
    calibrate, vet_sequences, CalibrationOutcome, DetectorBank, EmConfig, SecureNode, SecureStep,
    SecurityConfig, StateSpaceParams, SurveyorInfo, SurveyorRegistry, VetEvent,
    MIN_CALIBRATION_SAMPLES,
};
use ices_netsim::{FaultPlan, Network, ProbeOutcome};
use ices_obs::Journal;
use ices_stats::rng::SimRng;
use rand::RngExt;
use std::collections::{BTreeMap, BTreeSet};

/// How many random Surveyors a joining node probes before adopting the
/// closest one's filter (§4.2's join protocol).
const JOIN_PROBE_CANDIDATES: usize = 8;

/// Cap on the per-node trace length kept for calibration and replay.
const TRACE_CAP: usize = 8192;

/// Recent clean samples used to prime a freshly adopted filter.
const PRIME_SAMPLES: usize = 64;

/// Extra probe attempts after a lost/timed-out probe within one tick
/// (the bounded deterministic backoff: retries are immediate re-probes
/// under fresh nonces, capped per tick).
const PROBE_RETRIES: u32 = 2;

/// Consecutive failed ticks toward one peer before the node gives up
/// and evicts it as dead.
pub const DEAD_PEER_EVICT_FAILURES: u32 = 3;

/// What differs between the embeddings behind [`SecureDriver`].
///
/// The seam exists for the two embeddings the paper evaluates; the
/// driver is generic over it (no trait objects), so each backend
/// compiles to its own monomorphic tick loop.
pub trait Backend: Sync {
    /// The embedding every node runs.
    type Node: Embedding + Send;

    /// Driver name stamped into the journal's `meta` line.
    const NAME: &'static str;

    /// A fresh, unconverged node.
    fn node(&self, id: usize, seed: u64) -> Self::Node;

    /// Reset a node's positioning state (§3.2 "forget and rejoin").
    fn reset(node: &mut Self::Node);

    /// Close a node's positioning round from the steps it accepted, at
    /// its round boundary. The default does nothing: an embedding that
    /// applies each step at once has no round to close.
    fn finish_round(_node: &mut Self::Node) {}

    /// How a pass divides into ticks and sweeps.
    fn schedule(&self) -> Schedule;

    /// The nonce of retry `attempt` of `node`'s `k`-th probe in `tick`:
    /// a pure function of its arguments, so concurrent workers need no
    /// shared counter. Attempt 0 is the clean-network nonce, so an empty
    /// fault plan reproduces the fault-free run bit for bit; later
    /// attempts draw from a disjoint retry stream.
    fn probe_nonce(tick: u64, node: usize, k: usize, attempt: u32) -> u64;

    /// The nonce of `node`'s join probe toward its `k`-th Surveyor
    /// candidate, from a stream disjoint from the probe nonces.
    fn join_nonce(node: usize, k: usize) -> u64;

    /// How many of `offered` Surveyor referrals `node` gets to probe.
    fn join_referrals(&self, _node: usize, offered: usize) -> usize {
        offered
    }

    /// Screen a secured node's sample before the detector sees it.
    /// Returns the witness probes issued and whether the sample is
    /// rejected outright. The default screens nothing.
    fn screen(&self, _intake: &Intake<'_>) -> (u64, bool) {
        (0, false)
    }

    /// A fresh peer for `node` in place of a rejected or dead one, drawn
    /// from `rng`; `peers` is the node's current set. `None` keeps the
    /// old peer.
    fn replacement(&mut self, node: usize, peers: &[usize], rng: &mut SimRng) -> Option<usize>;

    /// Whether Surveyor `candidate` may replace a dead peer of `node`
    /// that must embed against trusted nodes only (a Surveyor, or anyone
    /// in a Surveyors-only scenario). The default trusts every Surveyor.
    fn trusted(&self, _node: usize, _candidate: usize) -> bool {
        true
    }
}

/// How a pass divides into ticks (the unit of probe nonces, deferred-arm
/// retries and journal lines) and where the detector's round boundary
/// falls.
pub enum Schedule {
    /// One tick per peer slot: every node probes the peer in that slot
    /// of its set. The round boundary falls at the end of the pass, for
    /// every secured node (Vivaldi).
    Slots,
    /// One tick per pass, in which the groups (hierarchy layers, lowest
    /// first) sweep in order, every member probing all of its peers. Each
    /// group's sweep closes its members' round (NPS).
    Layers(Vec<Vec<usize>>),
}

/// A sample arriving at a secured node, with what a
/// [`Backend::screen`] hook may consult.
pub struct Intake<'a> {
    /// The simulated network (for witness probes).
    pub network: &'a Network,
    /// This sweep's population snapshot.
    pub snapshot: &'a CoordSnapshot,
    /// The adversary in the path.
    pub adversary: &'a dyn Adversary,
    /// The current tick.
    pub tick: u64,
    /// The receiving node.
    pub node: usize,
    /// The sample as it arrived (tampered or honest).
    pub sample: &'a PeerSample,
    /// Ground truth: the adversary tampered with the sample.
    pub tampered: bool,
}

enum Participant<E> {
    /// No detection in front of the embedding (Surveyors, malicious
    /// nodes, and every node in detection-off baselines).
    Plain(E),
    /// Vetted by the detection protocol.
    Secured(Box<SecureNode<E>>),
}

impl<E: Embedding> Participant<E> {
    /// The embedding, whether or not detection wraps it.
    fn node(&self) -> &E {
        match self {
            Participant::Plain(n) => n,
            Participant::Secured(s) => s.inner(),
        }
    }

    fn node_mut(&mut self) -> &mut E {
        match self {
            Participant::Plain(n) => n,
            Participant::Secured(s) => s.inner_mut(),
        }
    }

    fn is_secured(&self) -> bool {
        matches!(self, Participant::Secured(_))
    }
}

/// Why a probe produced no measurement (terminal, after retries).
#[derive(Clone, Copy)]
enum ProbeFate {
    Lost,
    TimedOut,
    PeerDown,
}

/// How a sweep that closed a node's round left its filter.
#[derive(Clone, Copy, Default)]
enum Settled {
    /// No refresh asked for (or the sweep did not close the round).
    #[default]
    Kept,
    /// Refreshed from the closest live Surveyor.
    Refreshed,
    /// A refresh was asked for but every Surveyor was down: the node
    /// keeps its stale-but-bounded calibration.
    Stale,
}

/// A node's entries for one sweep. A Vivaldi tick probes one peer, so
/// its entries live inline; only multi-probe (NPS) sweeps allocate.
#[derive(Default)]
enum Few<T> {
    #[default]
    Zero,
    One(T),
    Many(Vec<T>),
}

impl<T> Few<T> {
    fn push(&mut self, item: T) {
        *self = match std::mem::take(self) {
            Few::Zero => Few::One(item),
            Few::One(first) => Few::Many(vec![first, item]),
            Few::Many(mut all) => {
                all.push(item);
                Few::Many(all)
            }
        };
    }
}

impl<T> std::ops::Deref for Few<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            Few::Zero => &[],
            Few::One(item) => std::slice::from_ref(item),
            Few::Many(all) => all,
        }
    }
}

impl<T> AsRef<[T]> for Few<T> {
    fn as_ref(&self) -> &[T] {
        self
    }
}

/// What one node's part of a sweep asks the driver to apply globally.
/// Written by the parallel update phase, completed by the vet, and
/// merged in node order.
#[derive(Default)]
struct Effect {
    /// Measured relative errors to append to the node's trace, in probe
    /// order: a plain node's steps, or a secured node's accepted ones.
    recorded: Few<f64>,
    /// `(label_malicious, flagged)` per vetted sample.
    vetted: Few<(bool, bool)>,
    /// Peers to replace: `(peer, rejected by the screening hook)`.
    rejected: Few<(usize, bool)>,
    /// Probed peers in probe order, with the terminal fate of a probe
    /// that failed after all retries (`None`: it completed).
    probed: Few<(usize, Option<ProbeFate>)>,
    /// Detector events deferred to the batched sweep, in probe order; a
    /// `Missing` coast holds its position so the per-node op order
    /// matches the scalar interleaving exactly.
    events: Few<VetEvent>,
    /// Ground-truth labels of `events` (unused for `Missing`).
    labels: Few<bool>,
    /// The node was crashed for this tick (churn) and did nothing.
    self_down: bool,
    /// Probes that completed only after at least one retry.
    retried: u64,
    /// Missing samples a secured node absorbed as detector coasts.
    coasted: u64,
    /// Tampered samples the adversary injected (ground truth, counted
    /// before any vetting).
    lied: u64,
    /// Tampered samples whose deflated RTT the intake clamp raised.
    clamped: u64,
    /// Witness probes the screening hook issued.
    cross_checks: u64,
    /// Steps that hit the first-time-peer reprieve.
    reprieves: u64,
    /// The round boundary's outcome, when this sweep closed the round.
    settled: Settled,
}

/// Which nodes a sweep visits and which of their peers they probe.
#[derive(Clone, Copy)]
enum Sweep<'a> {
    /// Every node probes the peer in this slot of its set.
    Slot(usize),
    /// These nodes (ascending) probe all of their peers and close their
    /// round.
    Layer(&'a [usize]),
}

impl<'a> Sweep<'a> {
    /// The sweep's `i`-th member.
    fn node(self, i: usize) -> usize {
        match self {
            Sweep::Slot(_) => i,
            Sweep::Layer(members) => members[i],
        }
    }

    /// The nodes the sweep visits, ascending, in a population of `n`.
    fn members(self, n: usize) -> impl Iterator<Item = usize> + 'a {
        let count = match self {
            Sweep::Slot(_) => n,
            Sweep::Layer(members) => members.len(),
        };
        (0..count).map(move |i| self.node(i))
    }
}

/// Probe `peer` from `node`. On a faulty network, lost or timed-out
/// attempts are retried under fresh nonces; the outcome is recorded in
/// `effect`. Returns the RTT when an attempt completed.
fn probe(
    network: &Network,
    faulty: bool,
    (node, peer, tick): (usize, usize, u64),
    nonce: impl Fn(u32) -> u64,
    effect: &mut Effect,
) -> Option<f64> {
    if !faulty {
        return Some(network.measure_rtt_smoothed(node, peer, nonce(0)));
    }
    if !network.node_up(peer, tick) {
        effect.probed.push((peer, Some(ProbeFate::PeerDown)));
        return None;
    }
    let mut fate = ProbeFate::Lost;
    for attempt in 0..=PROBE_RETRIES {
        match network.try_measure_rtt_smoothed(node, peer, nonce(attempt), tick) {
            ProbeOutcome::Ok(rtt) => {
                if attempt > 0 {
                    effect.retried += 1;
                }
                effect.probed.push((peer, None));
                return Some(rtt);
            }
            ProbeOutcome::Lost => fate = ProbeFate::Lost,
            ProbeOutcome::TimedOut => fate = ProbeFate::TimedOut,
        }
    }
    effect.probed.push((peer, Some(fate)));
    None
}

/// Re-register every Surveyor as `update(k, entry)` of its `k`-th
/// registry entry.
fn reregister(
    registry: &mut SurveyorRegistry,
    mut update: impl FnMut(usize, &SurveyorInfo) -> SurveyorInfo,
) {
    let updated: Vec<SurveyorInfo> = registry
        .all()
        .iter()
        .enumerate()
        .map(|(k, info)| update(k, info))
        .collect();
    for info in updated {
        registry.register(info);
    }
}

/// A secured coordinate-system simulation: the detection protocol in
/// front of every honest node of backend `B`'s embedding.
pub struct SecureDriver<B: Backend> {
    config: ScenarioConfig,
    security: SecurityConfig,
    pub(crate) backend: B,
    network: Network,
    surveyors: BTreeSet<usize>,
    malicious: BTreeSet<usize>,
    /// Each node's probe set (Vivaldi neighbors, NPS reference points).
    /// Surveyors' sets hold trusted nodes only.
    pub(crate) peers: Vec<Vec<usize>>,
    participants: Vec<Participant<B::Node>>,
    registry: SurveyorRegistry,
    traces: Vec<TraceRing>,
    /// Count of completed ticks; probe nonces derive from it,
    /// independent of execution order.
    tick: u64,
    /// Metrics registry + optional run journal; the single source of
    /// truth the [`DetectionReport`] is derived from.
    obs: SimObs,
    rng: SimRng,
    /// Reusable SoA snapshot buffer for each sweep's phase 1 — flat
    /// arrays refilled in place, so steady-state sweeps allocate nothing
    /// to photograph the population.
    snapshot: CoordSnapshot,
    /// Per-node consecutive probe-failure counts toward each peer
    /// (fault mode only; empty maps on a clean network).
    probe_failures: Vec<BTreeMap<usize, u32>>,
    /// Nodes whose [`SecureDriver::arm_detection`] found no live
    /// Surveyor candidate (total outage); retried each tick.
    pending_arms: BTreeSet<usize>,
    /// Reusable SoA execution engine for the vet phase. Transient per
    /// sweep: state is gathered from and scattered back to each node's
    /// scalar [`ices_core::Detector`], which stays the source of truth.
    bank: DetectorBank,
    /// Per-node sweep effects, reset in place by each member's update,
    /// so a sweep neither allocates nor copies them.
    effects: Vec<Effect>,
}

impl<B: Backend> SecureDriver<B> {
    /// Assemble a driver from a backend's construction: every node
    /// starts plain, at its embedding's bootstrap state.
    pub(crate) fn assemble(
        config: ScenarioConfig,
        backend: B,
        network: Network,
        (surveyors, malicious): (BTreeSet<usize>, BTreeSet<usize>),
        peers: Vec<Vec<usize>>,
        rng: SimRng,
    ) -> Self {
        let n = network.len();
        let participants = (0..n)
            .map(|id| Participant::Plain(backend.node(id, config.seed)))
            .collect();
        Self {
            security: SecurityConfig {
                alpha: config.alpha,
                ..SecurityConfig::paper_default()
            },
            config,
            backend,
            network,
            surveyors,
            malicious,
            peers,
            participants,
            registry: SurveyorRegistry::new(),
            traces: vec![TraceRing::with_capacity(TRACE_CAP); n],
            tick: 0,
            obs: SimObs::new(),
            rng,
            snapshot: CoordSnapshot::new(),
            probe_failures: vec![BTreeMap::new(); n],
            pending_arms: BTreeSet::new(),
            bank: DetectorBank::new(),
            effects: (0..n).map(|_| Effect::default()).collect(),
        }
    }

    /// Attach a fault plan to the underlying network. The default plan
    /// is empty; see [`ices_netsim::FaultPlan`].
    ///
    /// # Panics
    /// Panics if the plan is invalid.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.network.set_fault_plan(plan);
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.participants.len()
    }

    /// Always false.
    pub fn is_empty(&self) -> bool {
        self.participants.is_empty()
    }

    /// Completed ticks so far (adversaries that calibrate their behavior
    /// to elapsed time — e.g. slow drift — anchor on this).
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// The simulated network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Surveyor node ids.
    pub fn surveyors(&self) -> &BTreeSet<usize> {
        &self.surveyors
    }

    /// Malicious node ids.
    pub fn malicious(&self) -> &BTreeSet<usize> {
        &self.malicious
    }

    /// Honest non-Surveyor node ids (the paper's "normal nodes").
    pub fn normal_nodes(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|i| !self.surveyors.contains(i) && !self.malicious.contains(i))
            .collect()
    }

    /// Per-node traces of measured relative errors collected so far.
    /// Each [`TraceRing`] derefs to a contiguous `&[f64]`, oldest first.
    pub fn traces(&self) -> &[TraceRing] {
        &self.traces
    }

    /// Clear collected traces (e.g. between calibration and validation
    /// phases).
    pub fn clear_traces(&mut self) {
        for t in &mut self.traces {
            t.clear();
        }
    }

    /// The Surveyor registry (filled by
    /// [`SecureDriver::calibrate_surveyors`]).
    pub fn registry(&self) -> &SurveyorRegistry {
        &self.registry
    }

    /// Detection metrics accumulated so far, derived from the
    /// observability registry (the counters are the primary record;
    /// this assembles the serialized report shape from them).
    pub fn report(&self) -> DetectionReport {
        self.obs.detection_report()
    }

    /// Attach a run journal: every subsequent tick emits a counter
    /// delta line, and discrete events (evictions, rejections, filter
    /// refreshes, deferred arms) are recorded as they happen. Journal
    /// emission reads the same registry the report is derived from, so
    /// simulation outputs are bit-identical with or without one.
    pub fn enable_journal(&mut self, journal: Journal) {
        let (nodes, seed) = (self.len(), self.config.seed);
        self.obs.enable_journal(journal, B::NAME, nodes, seed);
    }

    /// Emit the journal's `summary` line and detach it, returning the
    /// accumulated bytes for in-memory journals (`None` for file
    /// journals, whose bytes are flushed to disk).
    pub fn finish_journal(&mut self) -> Option<Vec<u8>> {
        self.obs.finish_journal()
    }

    /// Whether `node` is currently wrapped in the detection protocol.
    pub fn is_secured(&self, node: usize) -> bool {
        self.participants[node].is_secured()
    }

    /// Nodes whose detection arming is still deferred (Surveyor outage
    /// at arm time and no live candidate since).
    pub fn pending_arms(&self) -> &BTreeSet<usize> {
        &self.pending_arms
    }

    /// A node's current coordinate.
    pub fn coordinate(&self, node: usize) -> &Coordinate {
        self.participants[node].node().coordinate()
    }

    /// A node's current local error.
    pub fn local_error(&self, node: usize) -> f64 {
        self.participants[node].node().local_error()
    }

    /// Reset every node's positioning state (the §3.2 "forget and
    /// rejoin" protocol). Traces, calibration, and Surveyor filters are
    /// kept.
    pub fn forget_coordinates(&mut self) {
        for p in &mut self.participants {
            B::reset(p.node_mut());
        }
    }

    /// Run `passes` full passes with the adversary in the path: every
    /// node probes each of its peers once per pass, in the backend's
    /// [`Schedule`]. The worker count comes from `ICES_THREADS` /
    /// [`ices_par::max_threads`] and never changes the result.
    pub fn run(&mut self, passes: usize, adversary: &dyn Adversary, collect_traces: bool) {
        let start = self.tick;
        let schedule = self.backend.schedule();
        for _ in 0..passes {
            match &schedule {
                Schedule::Slots => {
                    let max_degree = self.peers.iter().map(Vec::len).max().unwrap_or(0);
                    for slot in 0..max_degree {
                        self.tick(adversary, |sim, tick| {
                            sim.sweep(Sweep::Slot(slot), tick, adversary, collect_traces);
                        });
                    }
                    self.refresh_registry_coordinates();
                    let secured: Vec<usize> =
                        (0..self.len()).filter(|&n| self.is_secured(n)).collect();
                    let settled = self.settle(&secured, self.tick);
                    for (&node, settled) in secured.iter().zip(settled) {
                        self.note_settled(node, settled);
                    }
                }
                Schedule::Layers(layers) => {
                    self.tick(adversary, |sim, tick| {
                        for members in layers.iter().filter(|m| !m.is_empty()) {
                            sim.sweep(Sweep::Layer(members), tick, adversary, collect_traces);
                        }
                    });
                    self.refresh_registry_coordinates();
                }
            }
        }
        self.obs.phase("run", self.tick - start);
    }

    /// Run clean (attack-free) passes, collecting traces.
    pub fn run_clean(&mut self, passes: usize) {
        self.run(passes, &ices_attack::HonestWorld, true);
    }

    /// One tick: deferred arms retry first (no-op — and no RNG draw —
    /// unless a deferral actually happened), then `body` runs the
    /// tick's sweeps, then the tick's gauges and journal line.
    fn tick(&mut self, adversary: &dyn Adversary, body: impl FnOnce(&mut Self, u64)) {
        let tick = self.tick;
        self.tick += 1;
        self.obs.begin_tick(tick);
        self.retry_pending_arms();
        body(self, tick);
        // Slow-drift displacement gauge: a level, set only when the
        // adversary actually drifts so honest-run journals stay
        // byte-identical (unset gauges are NaN and never emitted).
        let drift = adversary.drift_accumulated_ms(tick);
        if drift > 0.0 {
            self.obs.set_drift_ms(drift);
        }
        if self.obs.journal_enabled() {
            // Journal-only gauge: mean node-local embedding error. Only
            // computed when someone is listening.
            let n = self.participants.len().max(1) as f64;
            let sum: f64 = self
                .participants
                .iter()
                .map(|p| p.node().local_error())
                .sum();
            self.obs.set_mean_local_error(sum / n);
        }
        self.obs.tick_boundary(tick);
    }

    /// One sweep: snapshot, parallel update, batched vet, optional
    /// round boundary, node-order merge.
    fn sweep(&mut self, sweep: Sweep<'_>, tick: u64, adversary: &dyn Adversary, collect: bool) {
        self.snapshot.fill(
            self.participants
                .iter()
                .map(|p| (p.node().coordinate(), p.node().local_error())),
        );
        let mut effects = std::mem::take(&mut self.effects);
        self.update(sweep, tick, adversary, &mut effects);
        self.vet(sweep, &mut effects);
        if let Sweep::Layer(members) = sweep {
            // Deferred round boundary for secured members that were up,
            // now that the vet has applied their accepted steps.
            let closing: Vec<usize> = (members.iter().copied())
                .filter(|&node| !effects[node].self_down && self.is_secured(node))
                .collect();
            for (&node, settled) in closing.iter().zip(self.settle(&closing, tick)) {
                effects[node].settled = settled;
            }
        }
        let journaled = self.obs.journal_enabled();
        for node in sweep.members(self.len()) {
            self.merge(node, &effects[node], journaled, collect);
        }
        self.effects = effects;
    }

    /// The parallel phase: each member probes its peers, consults the
    /// adversary, and steps its own embedding (plain nodes) or defers
    /// its detector work to the vet (secured nodes).
    fn update(
        &mut self,
        sweep: Sweep<'_>,
        tick: u64,
        adversary: &dyn Adversary,
        effects: &mut [Effect],
    ) {
        let network = &self.network;
        let peers = &self.peers;
        let snapshot = &self.snapshot;
        let backend = &self.backend;
        let faulty = !network.fault_plan().is_empty();
        let visit = |node: usize, participant: &mut Participant<B::Node>, effect: &mut Effect| {
            *effect = Effect::default();
            let probes: &[usize] = match sweep {
                Sweep::Slot(slot) => match peers[node].get(slot) {
                    Some(peer) => std::slice::from_ref(peer),
                    None => return,
                },
                Sweep::Layer(_) => &peers[node],
            };
            if faulty && !network.node_up(node, tick) {
                // Crashed for this epoch: the node does nothing and
                // rejoins warm (coordinate intact) when the epoch turns.
                effect.self_down = true;
                return;
            }
            for (k, &peer) in probes.iter().enumerate() {
                let nonce = |attempt| B::probe_nonce(tick, node, k, attempt);
                let Some(rtt) = probe(network, faulty, (node, peer, tick), nonce, effect) else {
                    // Missing sample: a secured node's detector coasts
                    // (time-update only, in the vet, holding its
                    // probe-order position) so its innovation statistics
                    // widen honestly; the embedding is untouched.
                    if participant.is_secured() {
                        effect.events.push(VetEvent::Missing);
                        effect.labels.push(false);
                        effect.coasted += 1;
                    }
                    continue;
                };
                // Materialize only the two coordinates this probe
                // touches; the honest path then *moves* the peer
                // coordinate into the sample instead of cloning it again.
                let peer_coord = snapshot.coordinate(peer);
                let peer_error = snapshot.error(peer);
                let node_coord = snapshot.coordinate(node);
                let tampered = adversary.intercept(
                    peer,
                    node,
                    tick,
                    &peer_coord,
                    peer_error,
                    rtt,
                    &node_coord,
                );
                let label = tampered.is_some();
                let sample = match tampered {
                    Some(mut t) => {
                        effect.lied += 1;
                        // Intake invariant: an attacker can delay its
                        // probe reply but cannot make light travel
                        // faster, so a tampered RTT below the measured
                        // one is clamped back up (and counted) before
                        // anything consumes it.
                        if t.clamp_rtt(rtt) {
                            effect.clamped += 1;
                        }
                        debug_assert!(
                            t.rtt_ms >= rtt,
                            "intake clamp must enforce rtt_ms >= measured rtt"
                        );
                        PeerSample {
                            peer,
                            peer_coord: t.coord,
                            peer_error: t.error,
                            rtt_ms: t.rtt_ms,
                        }
                    }
                    None => PeerSample {
                        peer,
                        peer_coord,
                        peer_error,
                        rtt_ms: rtt,
                    },
                };
                match participant {
                    Participant::Plain(n) => {
                        effect.recorded.push(n.apply_step(&sample).relative_error);
                    }
                    Participant::Secured(_) => {
                        let intake = Intake {
                            network,
                            snapshot,
                            adversary,
                            tick,
                            node,
                            sample: &sample,
                            tampered: label,
                        };
                        let (cross_checks, rejected) = backend.screen(&intake);
                        effect.cross_checks += cross_checks;
                        if rejected {
                            // The detector never sees the sample: coast
                            // the filter honestly and swap the peer out.
                            effect.events.push(VetEvent::Missing);
                            effect.labels.push(false);
                            effect.vetted.push((label, true));
                            effect.rejected.push((peer, true));
                        } else {
                            // Defer the innovation test (and the apply-
                            // on-accept) to the vet. Nothing after this
                            // point reads the node's post-step state, so
                            // the move is order-preserving.
                            effect.events.push(VetEvent::Sample(sample));
                            effect.labels.push(label);
                        }
                    }
                }
            }
            // A plain member closes its round here; a secured one defers
            // it until the vet has applied its accepted steps.
            if let (Sweep::Layer(_), Participant::Plain(n)) = (sweep, participant) {
                B::finish_round(n);
            }
        };
        // Each member's node and effect, paired so a worker owns both.
        let mut pairs: Vec<(&mut Participant<B::Node>, &mut Effect)> = match sweep {
            Sweep::Slot(_) => self.participants.iter_mut().zip(effects).collect(),
            Sweep::Layer(members) => {
                let nodes = ices_par::select_disjoint_mut(&mut self.participants, members);
                nodes
                    .into_iter()
                    .zip(ices_par::select_disjoint_mut(effects, members))
                    .collect()
            }
        };
        ices_par::par_map_mut(&mut pairs, |i, (participant, effect)| {
            visit(sweep.node(i), participant, effect)
        });
    }

    /// The vet phase: every deferred detector event of the sweep runs
    /// through one `DetectorBank` pass, bit-identical to the scalar
    /// per-node calls it replaces (asserted by `ices_core::protocol`'s
    /// equivalence suite), and the verdicts are written back into the
    /// effects.
    fn vet(&mut self, sweep: Sweep<'_>, effects: &mut [Effect]) {
        let mut vet_nodes = Vec::new();
        let mut events = Vec::new();
        for node in sweep.members(self.len()) {
            if !effects[node].events.is_empty() {
                vet_nodes.push(node);
                events.push(std::mem::take(&mut effects[node].events));
            }
        }
        if vet_nodes.is_empty() {
            return;
        }
        let mut secured: Vec<&mut SecureNode<B::Node>> =
            ices_par::select_disjoint_mut(&mut self.participants, &vet_nodes)
                .into_iter()
                .map(|p| match p {
                    Participant::Secured(s) => &mut **s,
                    Participant::Plain(_) => panic!("only secured nodes defer detector work"),
                })
                .collect();
        vet_sequences(&mut self.bank, &mut secured, &events, |i, k, step| {
            let effect = &mut effects[vet_nodes[i]];
            effect.vetted.push((effect.labels[k], !step.accepted()));
            match step {
                SecureStep::Accepted { outcome, .. } => {
                    effect.recorded.push(outcome.relative_error);
                }
                SecureStep::Reprieved { .. } => effect.reprieves += 1,
                SecureStep::Rejected { .. } => {
                    if let VetEvent::Sample(sample) = &events[i][k] {
                        effect.rejected.push((sample.peer, false));
                    }
                }
            }
        });
    }

    /// Close the detector round of each (secured) node in `nodes`, in
    /// parallel: the backend closes the positioning round, then a node
    /// whose detector asks for a refresh adopts the filter of the
    /// closest Surveyor that is up at tick `at`. With every Surveyor down
    /// it keeps its stale-but-bounded calibration. (On a clean network
    /// every node is up, so this is the unconditional lookup.)
    fn settle(&mut self, nodes: &[usize], at: u64) -> Vec<Settled> {
        let registry = &self.registry;
        let network = &self.network;
        ices_par::par_for_indices(&mut self.participants, nodes, |_, participant| {
            let Participant::Secured(s) = participant else {
                panic!("only secured nodes settle a detector round")
            };
            B::finish_round(s.inner_mut());
            if s.end_round() != RoundAction::RefreshFilter {
                return Settled::Kept;
            }
            let coord = s.inner().coordinate();
            match registry
                .closest_available_by_coordinate(coord, |info| network.node_up(info.id, at))
            {
                Some(info) => {
                    let (params, id) = (info.params, info.id);
                    s.refresh_filter(params, id);
                    Settled::Refreshed
                }
                None => Settled::Stale,
            }
        })
    }

    fn note_settled(&mut self, node: usize, settled: Settled) {
        match settled {
            Settled::Kept => {}
            Settled::Refreshed => self.obs.filter_refresh(node),
            Settled::Stale => self.obs.stale_filter_fallback(node),
        }
    }

    /// Apply one node's effect: counters, trace appends, replacements,
    /// round-boundary events, fault bookkeeping and evictions, in this
    /// order (replacements and evictions draw from the driver RNG).
    fn merge(&mut self, node: usize, effect: &Effect, journaled: bool, collect: bool) {
        // Completed probes: every verdict of a secured node, every
        // recorded sample of a plain one (plain nodes have no verdicts;
        // secured nodes record only accepted steps).
        let ok = if effect.vetted.is_empty() {
            effect.recorded.len()
        } else {
            effect.vetted.len()
        };
        self.obs.probes_ok(ok as u64);
        for &(label_malicious, flagged) in effect.vetted.iter() {
            self.obs.record_confusion(label_malicious, flagged);
        }
        self.obs.reprieves(effect.reprieves);
        for &d in effect.recorded.iter() {
            if journaled {
                self.obs.observe_relative_error(d);
            }
            if collect {
                self.traces[node].push(d);
            }
        }
        self.obs.active_lies(effect.lied);
        self.obs.clamped_rtts(effect.clamped);
        self.obs.cross_checks(effect.cross_checks);
        for &(peer, screened) in effect.rejected.iter() {
            self.replace_peer(node, peer);
            self.obs.replacement(node, peer);
            if screened {
                self.obs.defense_rejection(node, peer);
            }
        }
        self.note_settled(node, effect.settled);
        // Fault bookkeeping (all of it dead on a clean network).
        if effect.self_down {
            self.obs.node_down_tick();
        }
        self.obs.retried_probes(effect.retried);
        self.obs.coasted_steps(effect.coasted);
        for &(peer, fate) in effect.probed.iter() {
            let Some(fate) = fate else {
                self.probe_failures[node].remove(&peer);
                continue;
            };
            match fate {
                ProbeFate::Lost => self.obs.lost_probe(),
                ProbeFate::TimedOut => self.obs.timed_out_probe(),
                ProbeFate::PeerDown => self.obs.peer_down_probe(),
            }
            let failures = self.probe_failures[node].entry(peer).or_insert(0);
            *failures += 1;
            if *failures >= DEAD_PEER_EVICT_FAILURES {
                self.probe_failures[node].remove(&peer);
                self.evict_dead_peer(node, peer);
            }
        }
    }

    /// Swap a rejected peer for the backend's replacement draw (or keep
    /// it when the pool is exhausted).
    fn replace_peer(&mut self, node: usize, rejected: usize) {
        if let Some(fresh) = self
            .backend
            .replacement(node, &self.peers[node], &mut self.rng)
        {
            self.swap_peer(node, rejected, fresh);
        }
    }

    /// Evict a peer that failed [`DEAD_PEER_EVICT_FAILURES`] consecutive
    /// probes. A Surveyor (and anyone in a Surveyors-only scenario) must
    /// draw the replacement from the trusted Surveyors to preserve
    /// the §3.3 isolation invariant; everyone else uses the ordinary
    /// replacement path.
    fn evict_dead_peer(&mut self, node: usize, dead: usize) {
        self.obs.eviction(node);
        if !self.surveyors.contains(&node) && !self.config.embed_against_surveyors_only {
            self.replace_peer(node, dead);
            return;
        }
        let peers = &self.peers[node];
        let pool: Vec<usize> = (self.surveyors.iter().copied())
            .filter(|&s| s != node && !peers.contains(&s) && self.backend.trusted(node, s))
            .collect();
        if pool.is_empty() {
            return; // No fresh trusted node available: keep the dead peer.
        }
        let fresh = pool[self.rng.random_range(0..pool.len())];
        self.swap_peer(node, dead, fresh);
    }

    fn swap_peer(&mut self, node: usize, old: usize, fresh: usize) {
        if let Some(slot) = self.peers[node].iter_mut().find(|p| **p == old) {
            *slot = fresh;
        }
    }

    /// Refresh registry coordinates so closest-Surveyor lookups stay
    /// current.
    fn refresh_registry_coordinates(&mut self) {
        let participants = &self.participants;
        reregister(&mut self.registry, |_, info| SurveyorInfo {
            id: info.id,
            coordinate: participants[info.id].node().coordinate().clone(),
            params: info.params,
        });
    }

    /// EM-calibrate every Surveyor on its collected trace and publish
    /// the results in the registry. A Surveyor whose trace holds fewer
    /// than [`MIN_CALIBRATION_SAMPLES`] samples (one that was down for
    /// the whole clean phase, say) never calibrated: it is left out of
    /// the registry, so no node adopts its filter.
    pub fn calibrate_surveyors(&mut self, em: &EmConfig) {
        for &id in &self.surveyors {
            let trace = &self.traces[id];
            if trace.len() < MIN_CALIBRATION_SAMPLES {
                continue;
            }
            let outcome = calibrate(trace, StateSpaceParams::em_initial_guess(), em);
            self.registry.register(SurveyorInfo {
                id,
                coordinate: self.participants[id].node().coordinate().clone(),
                params: outcome.params,
            });
        }
        self.obs.phase("calibrate", 0);
    }

    /// EM-calibrate *every* node on its own trace (the §3.2 validation
    /// needs per-node filters). Returns outcomes indexed by node.
    ///
    /// # Panics
    /// Panics if a trace holds fewer than [`MIN_CALIBRATION_SAMPLES`]
    /// samples (run more clean passes first).
    pub fn calibrate_all(&self, em: &EmConfig) -> Vec<CalibrationOutcome> {
        self.traces
            .iter()
            .map(|t| calibrate(t, StateSpaceParams::em_initial_guess(), em))
            .collect()
    }

    /// Arm the detection protocol on every honest non-Surveyor node:
    /// each probes a handful (8) of random Surveyors, adopts the
    /// closest one's filter (§4.2 join), and is wrapped in a
    /// [`SecureNode`]. No-op when the scenario disables detection.
    ///
    /// # Panics
    /// Panics if the registry is empty (calibrate Surveyors first).
    pub fn arm_detection(&mut self) {
        if !self.config.detection {
            return;
        }
        assert!(
            !self.registry.is_empty(),
            "calibrate Surveyors before arming detection"
        );
        for node in self.normal_nodes() {
            if !self.try_arm_node(node) {
                // Total Surveyor outage at arm time: defer this node's
                // arming to the next tick rather than indexing an empty
                // candidate draw.
                self.pending_arms.insert(node);
                self.obs.defer_arm(node);
            }
        }
        self.obs.phase("arm", 0);
    }

    /// Retry every deferred arm. Nodes that secure now count as late
    /// arms; the rest stay pending, each failed retry counting as
    /// another deferral. No-op (and no RNG draw) when nothing is
    /// pending, so runs without deferrals are bit-identical to the
    /// pre-deferral behavior.
    fn retry_pending_arms(&mut self) {
        if self.pending_arms.is_empty() {
            return;
        }
        let pending: Vec<usize> = self.pending_arms.iter().copied().collect();
        for node in pending {
            if self.try_arm_node(node) {
                self.pending_arms.remove(&node);
                self.obs.late_arm(node);
            } else {
                self.obs.defer_arm(node);
            }
        }
    }

    /// Arm one node: sample Surveyor candidates, probe them, adopt the
    /// closest live one's filter (§4.2 join), and wrap the node in a
    /// [`SecureNode`]. Returns `false` — deferring the arm — when the
    /// candidate draw has no live Surveyor at all (total outage).
    fn try_arm_node(&mut self, node: usize) -> bool {
        let faulty = !self.network.fault_plan().is_empty();
        let tick = self.tick;
        let mut candidates = self.registry.sample(JOIN_PROBE_CANDIDATES, &mut self.rng);
        candidates.truncate(self.backend.join_referrals(node, candidates.len()));
        if faulty {
            // Crashed Surveyors drop out of the candidate race before
            // anything is probed; on a clean network every node is up,
            // so this retain is a no-op and candidate indices (and
            // their join nonces) are unchanged from seed behavior.
            candidates.retain(|s| self.network.node_up(s.id, tick));
        }
        if candidates.is_empty() {
            return false;
        }
        let mut best: Option<(usize, f64)> = None;
        for (k, s) in candidates.iter().enumerate() {
            let nonce = B::join_nonce(node, k);
            let rtt = if !faulty {
                Some(self.network.measure_rtt_smoothed(node, s.id, nonce))
            } else {
                match self
                    .network
                    .try_measure_rtt_smoothed(node, s.id, nonce, tick)
                {
                    ProbeOutcome::Ok(rtt) => Some(rtt),
                    ProbeOutcome::Lost | ProbeOutcome::TimedOut => None,
                }
            };
            if let Some(rtt) = rtt {
                if best.map(|(_, d)| rtt < d).unwrap_or(true) {
                    best = Some((k, rtt));
                }
            }
        }
        // Every probe lost (heavy loss against live Surveyors): fall
        // back to the first live candidate rather than refusing to arm
        // — a stale choice beats no detector. The guard above makes the
        // index safe: `candidates` is non-empty here by construction.
        let chosen = best
            .map(|(k, _)| &candidates[k])
            // audit:allow(PANIC02): non-empty guard above (see comment)
            .unwrap_or_else(|| &candidates[0]);
        let (source, params) = (chosen.id, chosen.params);
        let placeholder = Participant::Plain(self.backend.node(node, 0));
        let inner = match std::mem::replace(&mut self.participants[node], placeholder) {
            Participant::Plain(inner) => inner,
            Participant::Secured(s) => panic!(
                "node {} already secured (filter source {})",
                node,
                s.filter_source()
            ),
        };
        let mut secured = SecureNode::new(inner, params, source, self.security);
        // Prime the filter with the node's recent clean history so a
        // converged node is not mistaken for a freshly joining one.
        let trace = &self.traces[node];
        secured.prime(&trace[trace.len().saturating_sub(PRIME_SAMPLES)..]);
        self.participants[node] = Participant::Secured(Box::new(secured));
        true
    }

    /// Rewrite every registered Surveyor's filter parameters through a
    /// caller-supplied transformation (ablation support: white-model β,
    /// random-walk β, stale parameters, …). Call between
    /// [`SecureDriver::calibrate_surveyors`] and
    /// [`SecureDriver::arm_detection`].
    pub fn transform_registry_params(
        &mut self,
        transform: &mut dyn FnMut(StateSpaceParams) -> StateSpaceParams,
    ) {
        reregister(&mut self.registry, |_, info| SurveyorInfo {
            id: info.id,
            coordinate: info.coordinate.clone(),
            params: transform(info.params),
        });
    }

    /// Rotate the registered parameters among Surveyors so every lookup
    /// returns an *unrelated* Surveyor's filter (the "random Surveyor"
    /// ablation arm). No-op with fewer than 2 Surveyors.
    pub fn shuffle_registry_params(&mut self) {
        let donors: Vec<StateSpaceParams> = self.registry.all().iter().map(|i| i.params).collect();
        if donors.len() < 2 {
            return;
        }
        let shift = donors.len() / 2;
        reregister(&mut self.registry, |k, info| SurveyorInfo {
            id: info.id,
            coordinate: info.coordinate.clone(),
            params: donors[(k + shift) % donors.len()],
        });
    }

    /// Enable or disable the first-time-peer reprieve (ablation switch).
    /// Takes effect for nodes armed afterwards.
    pub fn set_reprieve_enabled(&mut self, enabled: bool) {
        self.security.reprieve_enabled = enabled;
    }

    /// Measure system accuracy: relative errors of coordinate-estimated
    /// RTTs against base RTTs over up to `pairs_per_node` random honest
    /// partners per honest normal node.
    pub fn accuracy_report(&mut self, pairs_per_node: usize) -> AccuracyReport {
        let nodes = self.normal_nodes();
        let mut all = Vec::new();
        let mut p95 = Vec::new();
        for &node in &nodes {
            let errors = self.sampled_errors(node, &nodes, pairs_per_node);
            if errors.is_empty() {
                continue;
            }
            all.extend_from_slice(&errors);
            p95.push(ices_stats::ecdf::percentile(&errors, 95.0));
        }
        AccuracyReport {
            relative_errors: all,
            p95_per_node: p95,
        }
    }

    /// Per-node 95th-percentile report restricted to an arbitrary subset
    /// (used by the Fig 4 representativeness comparison).
    pub fn p95_for_subset(&mut self, subset: &[usize], pairs_per_node: usize) -> Vec<f64> {
        let nodes = self.normal_nodes();
        let mut p95 = Vec::with_capacity(subset.len());
        for &node in subset {
            let errors = self.sampled_errors(node, &nodes, pairs_per_node);
            if !errors.is_empty() {
                p95.push(ices_stats::ecdf::percentile(&errors, 95.0));
            }
        }
        p95
    }

    /// Relative errors of `node`'s coordinate-estimated RTTs to `pairs`
    /// random partners drawn from `nodes` (a draw of `node` itself is
    /// skipped).
    fn sampled_errors(&mut self, node: usize, nodes: &[usize], pairs: usize) -> Vec<f64> {
        let mut errors = Vec::with_capacity(pairs);
        for _ in 0..pairs {
            let other = nodes[self.rng.random_range(0..nodes.len())];
            if other == node {
                continue;
            }
            let est = self.participants[node]
                .node()
                .coordinate()
                .distance(self.participants[other].node().coordinate());
            let truth = self.network.base_rtt(node, other);
            errors.push((est - truth).abs() / truth);
        }
        errors
    }
}

/// The behavior both backends share, checked on each with its own small
/// scenario.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::nps_driver::NpsSimulation;
    use crate::scenario::{SurveyorPlacement, TopologyKind};
    use crate::vivaldi_driver::VivaldiSimulation;
    use ices_coord::Space;
    use ices_netsim::ChurnModel;
    use ices_nps::NpsConfig;

    /// 50 King nodes, 12% Surveyors, 20% malicious.
    pub(crate) fn vivaldi_scenario(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            topology: TopologyKind::small_king(50),
            surveyors: SurveyorPlacement::Random { fraction: 0.12 },
            malicious_fraction: 0.2,
            alpha: 0.05,
            detection: true,
            clean_cycles: 6,
            attack_cycles: 3,
            embed_against_surveyors_only: false,
        }
    }

    pub(crate) fn vivaldi(seed: u64) -> VivaldiSimulation {
        VivaldiSimulation::new(vivaldi_scenario(seed))
    }

    /// A small 2-d hierarchy with 8 landmarks.
    pub(crate) fn small_nps() -> NpsConfig {
        NpsConfig {
            space: Space::euclidean(2),
            landmarks: 8,
            rps_per_node: 8,
            min_rps: 4,
            solver_max_iter: 200,
            ..NpsConfig::paper_default()
        }
    }

    /// 80 King nodes, 15% Surveyors, 25% malicious.
    pub(crate) fn nps_scenario(seed: u64) -> ScenarioConfig {
        ScenarioConfig {
            seed,
            topology: TopologyKind::small_king(80),
            surveyors: SurveyorPlacement::Random { fraction: 0.15 },
            malicious_fraction: 0.25,
            alpha: 0.05,
            detection: true,
            clean_cycles: 4,
            attack_cycles: 3,
            embed_against_surveyors_only: false,
        }
    }

    pub(crate) fn nps(seed: u64) -> NpsSimulation {
        NpsSimulation::with_nps_config(nps_scenario(seed), small_nps())
    }

    fn assert_partitioned<B: Backend>(sim: &SecureDriver<B>) {
        for m in sim.malicious() {
            assert!(!sim.surveyors().contains(m));
        }
        assert_eq!(
            sim.normal_nodes().len(),
            sim.len() - sim.surveyors().len() - sim.malicious().len()
        );
    }

    #[test]
    fn construction_partitions_population() {
        let sim = vivaldi(1);
        assert_eq!(sim.len(), 50);
        assert_eq!(sim.surveyors().len(), 6); // 12% of 50
        assert_eq!(sim.malicious().len(), 10); // 20% of 50
        assert_partitioned(&sim);

        let sim = nps(1);
        assert_eq!(sim.len(), 80);
        for l in sim.hierarchy().landmarks() {
            assert!(sim.surveyors().contains(&l));
        }
        assert_partitioned(&sim);
    }

    fn assert_surveyor_peers_trusted<B: Backend>(sim: &SecureDriver<B>) {
        for &s in sim.surveyors() {
            for &p in &sim.peers[s] {
                assert!(
                    sim.surveyors().contains(&p),
                    "surveyor {s} embeds against untrusted {p}"
                );
            }
        }
    }

    #[test]
    fn surveyors_embed_against_surveyors_only() {
        assert_surveyor_peers_trusted(&vivaldi(2));
        assert_surveyor_peers_trusted(&nps(2));
    }

    fn assert_converges<B: Backend>(sim: &mut SecureDriver<B>, passes: usize, bound: f64) {
        sim.run_clean(passes);
        let median = sim.accuracy_report(20).median();
        assert!(median < bound, "median accuracy after clean run: {median}");
    }

    #[test]
    fn clean_run_converges() {
        let mut sim = vivaldi(3);
        assert_converges(&mut sim, 8, 0.25);
        // Local errors should have dropped well below 1.
        let normals = sim.normal_nodes();
        let mean_el: f64 =
            normals.iter().map(|&n| sim.local_error(n)).sum::<f64>() / normals.len() as f64;
        assert!(mean_el < 0.35, "mean local error {mean_el}");

        assert_converges(&mut nps(3), 6, 0.3);
    }

    fn assert_traces_per_pass<B: Backend>(mut sim: SecureDriver<B>) {
        sim.run_clean(2);
        for node in 0..sim.len() {
            assert_eq!(
                sim.traces()[node].len(),
                sim.peers[node].len() * 2,
                "node {node}"
            );
        }
        sim.clear_traces();
        assert!(sim.traces().iter().all(|t| t.is_empty()));
    }

    #[test]
    fn traces_are_collected_per_node() {
        assert_traces_per_pass(vivaldi(4));
        assert_traces_per_pass(nps(4));
    }

    fn assert_calibrates_and_arms<B: Backend>(mut sim: SecureDriver<B>) {
        sim.run_clean(4);
        sim.calibrate_surveyors(&EmConfig::default());
        assert_eq!(sim.registry().len(), sim.surveyors().len());
        for info in sim.registry().all() {
            info.params.validate();
        }
        sim.arm_detection();
        for node in 0..sim.len() {
            let should = !sim.surveyors().contains(&node) && !sim.malicious().contains(&node);
            assert_eq!(sim.is_secured(node), should, "node {node}");
        }
    }

    #[test]
    fn calibration_fills_registry_and_arms_normal_nodes_only() {
        assert_calibrates_and_arms(vivaldi(5));
        assert_calibrates_and_arms(nps(5));
    }

    fn median_after_clean<B: Backend>(mut sim: SecureDriver<B>, plan: Option<FaultPlan>) -> f64 {
        if let Some(plan) = plan {
            sim.set_fault_plan(plan);
        }
        sim.run_clean(3);
        sim.accuracy_report(10).median()
    }

    #[test]
    fn deterministic_runs() {
        assert_eq!(
            median_after_clean(vivaldi(10), None),
            median_after_clean(vivaldi(10), None)
        );
        assert_eq!(
            median_after_clean(nps(7), None),
            median_after_clean(nps(7), None)
        );
    }

    #[test]
    fn empty_fault_plan_changes_nothing() {
        assert_eq!(
            median_after_clean(vivaldi(12), None),
            median_after_clean(vivaldi(12), Some(FaultPlan::none()))
        );
        assert_eq!(
            median_after_clean(nps(8), None),
            median_after_clean(nps(8), Some(FaultPlan::none()))
        );
    }

    fn assert_lossy_converges<B: Backend>(mut sim: SecureDriver<B>, passes: usize, bound: f64) {
        sim.set_fault_plan(FaultPlan::lossy(0.1, 0.05));
        sim.run_clean(passes);
        let faults = &sim.report().faults;
        assert!(
            faults.retried_probes > 0,
            "retries should fire at 15% failure"
        );
        assert!(
            faults.lost_probes + faults.timed_out_probes > 0,
            "some probes should fail terminally"
        );
        let median = sim.accuracy_report(20).median();
        assert!(
            median < bound,
            "embedding should still converge under 15% probe failure, median {median}"
        );
    }

    #[test]
    fn lossy_network_still_converges_and_counts_faults() {
        assert_lossy_converges(vivaldi(13), 8, 0.3);
        assert_lossy_converges(nps(9), 6, 0.35);
    }

    fn assert_churn_coasts<B: Backend>(
        mut sim: SecureDriver<B>,
        clean: usize,
        epoch: u64,
        passes: usize,
    ) {
        sim.run_clean(clean);
        sim.calibrate_surveyors(&EmConfig::default());
        sim.arm_detection();
        sim.set_fault_plan(FaultPlan::lossy(0.15, 0.05).with_churn(ChurnModel::new(epoch, 0.2)));
        sim.run(passes, &ices_attack::HonestWorld, false);
        let faults = &sim.report().faults;
        assert!(faults.node_down_ticks > 0, "churn should crash some nodes");
        assert!(
            faults.peer_down_probes > 0,
            "probes should hit crashed peers"
        );
        assert!(
            faults.coasted_steps > 0,
            "secured nodes should coast over missing samples"
        );
    }

    #[test]
    fn churn_crashes_nodes_and_coasts_detectors() {
        assert_churn_coasts(vivaldi(14), 5, 16, 3);
        assert_churn_coasts(nps(10), 4, 2, 4);
    }

    /// Crash `victim` forever and run clean: returns how many other
    /// nodes had it as a peer before and after.
    fn evict<B: Backend>(sim: &mut SecureDriver<B>, victim: usize) -> (usize, usize) {
        let dependents = |sim: &SecureDriver<B>| {
            (0..sim.len())
                .filter(|&n| n != victim && sim.peers[n].contains(&victim))
                .count()
        };
        let before = dependents(sim);
        assert!(before > 0, "victim must serve someone");
        sim.set_fault_plan(
            FaultPlan::none().with_node_churn(victim, ChurnModel::new(u64::MAX, 0.999_999)),
        );
        sim.run_clean(6);
        assert!(
            sim.report().faults.evictions > 0,
            "a permanently dead peer should get evicted"
        );
        (before, dependents(sim))
    }

    #[test]
    fn dead_peers_are_evicted() {
        // Small neighbor sets so the 50-node population leaves room for
        // replacements (the paper's 64-neighbor default saturates it).
        let config = ices_vivaldi::VivaldiConfig {
            neighbors: 8,
            close_neighbors: 4,
            ..ices_vivaldi::VivaldiConfig::paper_default()
        };
        let mut sim = VivaldiSimulation::with_vivaldi_config(vivaldi_scenario(15), config);
        let victim = sim.normal_nodes()[0];
        evict(&mut sim, victim);
        assert!(
            !sim.normal_nodes()
                .iter()
                .filter(|&&n| n != victim)
                .any(|&n| sim.neighbors_of(n).contains(&victim)),
            "no live node should still neighbor the dead one after eviction"
        );

        // Fewer RPs per node than the layers serve, so dependents have a
        // spare serving node to evict toward.
        let config = NpsConfig {
            rps_per_node: 4,
            min_rps: 3,
            ..small_nps()
        };
        let mut sim = NpsSimulation::with_nps_config(nps_scenario(11), config);
        // A serving reference point that is not a landmark.
        let victim = (0..sim.len())
            .find(|&i| sim.hierarchy().role[i] == ices_nps::Role::ReferencePoint)
            .expect("hierarchy has reference points");
        let (before, after) = evict(&mut sim, victim);
        // Some dependents may have no spare serving node in the layer
        // above (tiny hierarchy) and keep the dead RP, but everyone with
        // a choice must have moved off it.
        assert!(
            after < before,
            "eviction should strictly shrink the dead RP's dependents ({before} -> {after})"
        );
    }
}
