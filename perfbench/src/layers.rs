//! The traced run: spans around every public call of a cell, then each
//! layer the workload runs timed from outside, on inputs taken from the
//! workload itself.
//!
//! A layer's share is its per-call cost × its call count in the phase ÷
//! the phase's wall time (× the pool width for work the pool runs in
//! parallel). A layer the workload does not run reports 0 for its
//! per-call cost and its share, so every non-zero figure is the
//! workload's own.
//!
//! Overheads (tracing, the journal) are medians over alternating pairs
//! of cells, printed next to the spread of the untraced cells, so that a
//! reader can tell an overhead from the host's run-to-run noise.

use crate::sims::{self, Cell, Leftover, Sim, Spec};
use crate::svc::{self, Kind, WINDOW};
use crate::trace::Tracer;
use crate::{median, quantile, ratio, Args, Metrics, Outcome};
use ices_attack::Adversary;
use ices_coord::{Coordinate, Embedding, PeerSample};
use ices_core::wire::{decode, encode, Disposition, Message};
use ices_core::{Detector, DetectorBank, StateSpaceParams};
use ices_netsim::Network;
use ices_nps::{NpsConfig, NpsNode};
use ices_stats::rng::SimRng;
use ices_svc::{ServiceConfig, ServiceCore};
use ices_vivaldi::{VivaldiConfig, VivaldiNode};
use rand::RngExt;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Seconds each per-call timing spends, split over five batches whose
/// median is reported.
const TIMING_BUDGET_S: f64 = 0.25;

/// Median seconds per call of `f`, over five batches sized to fill
/// [`TIMING_BUDGET_S`].
fn per_call(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let one = t.elapsed().as_secs_f64().max(1e-9);
    let reps = ((TIMING_BUDGET_S / 5.0) / one).clamp(1.0, 1e7) as usize;
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    median(&mut batches)
}

fn rng(seed: u64, stream: u64) -> SimRng {
    SimRng::from_stream(seed, 0x5045_5246, stream)
}

// ---------------------------------------------------------------- core

/// One predict → evaluate → accept/coast sweep of a `DetectorBank` of
/// `slots` detectors, with about `reject_share` of the observations
/// suspicious. Returns ns per slot and the measured suspicious share.
fn bank_ns_per_slot(
    params: StateSpaceParams,
    slots: usize,
    reject_share: f64,
    seed: u64,
) -> (f64, f64) {
    let slots = slots.max(1);
    let det = Detector::new(params, 0.05);
    let mut bank = DetectorBank::new();
    for _ in 0..slots {
        bank.push(&det);
    }
    let mut r = rng(seed, 1);
    let honest = params.w_bar / (1.0 - params.beta).max(1e-3);
    let obs: Vec<Vec<f64>> = (0..16)
        .map(|_| {
            (0..slots)
                .map(|_| {
                    if r.random::<f64>() < reject_share {
                        honest + 50.0
                    } else {
                        honest
                    }
                })
                .collect()
        })
        .collect();
    let active = vec![true; slots];
    let (mut sweeps, mut suspicious, mut seen) = (0usize, 0usize, 0usize);
    let s = per_call(|| {
        let o = &obs[sweeps % obs.len()];
        sweeps += 1;
        bank.predict_all();
        let verdicts = bank.evaluate_all(o, &active);
        let coast: Vec<bool> = verdicts
            .iter()
            .map(|v| v.is_some_and(|v| v.suspicious))
            .collect();
        let accept: Vec<bool> = coast.iter().map(|c| !c).collect();
        suspicious += coast.iter().filter(|c| **c).count();
        seen += slots;
        bank.accept_all(o, &accept);
        bank.coast_all(&coast);
        black_box(&bank);
    });
    (
        s * 1e9 / slots as f64,
        ratio(suspicious as f64, seen as f64),
    )
}

// -------------------------------------------------------------- netsim

fn probe_ns(network: &Network, pairs: &[(usize, usize)]) -> f64 {
    let mut i = 0u64;
    per_call(|| {
        let (a, b) = pairs[i as usize % pairs.len()];
        black_box(network.try_measure_rtt(a, b, i, i / 64));
        i += 1;
    }) * 1e9
}

// ------------------------------------------------------ vivaldi / nps

fn vivaldi_step_ns(samples: &[PeerSample], seed: u64) -> f64 {
    let mut node = VivaldiNode::new(0, VivaldiConfig::paper_default(), seed);
    let mut i = 0;
    per_call(|| {
        black_box(node.apply_step(&samples[i % samples.len()]));
        i += 1;
    }) * 1e9
}

/// One positioning round of an `NpsNode` per call, cycling over
/// `rp_sets` (each a reference-point set: coordinates and RTTs).
fn nps_round_us(rp_sets: &[Vec<PeerSample>], seed: u64) -> f64 {
    let mut node = NpsNode::new(0, NpsConfig::paper_default(), seed);
    let mut i = 0;
    per_call(|| {
        for s in &rp_sets[i % rp_sets.len()] {
            node.apply_step(s);
        }
        black_box(node.finish_round());
        i += 1;
    }) * 1e6
}

/// The workload's own (node, peer) samples: peers' current coordinates
/// and the base RTT between them, for up to `nodes` normal nodes.
fn workload_samples(sim: &Sim, nodes: usize) -> Vec<Vec<PeerSample>> {
    (0..sim.len())
        .filter(|&n| !sim.is_malicious(n) && !sim.peers_of(n).is_empty())
        .take(nodes)
        .map(|n| {
            sim.peers_of(n)
                .iter()
                .map(|&p| PeerSample {
                    peer: p,
                    peer_coord: sim.coordinate(p).clone(),
                    peer_error: 0.2,
                    rtt_ms: sim.network().base_rtt(n, p).max(0.1),
                })
                .collect()
        })
        .collect()
}

// -------------------------------------------------------------- attack

struct Intercept {
    peer: usize,
    victim: usize,
    coord: Coordinate,
    rtt: f64,
    victim_coord: Coordinate,
}

fn intercept_ns(adversary: &dyn Adversary, calls: &[Intercept]) -> f64 {
    let mut i = 0;
    per_call(|| {
        let c = &calls[i % calls.len()];
        black_box(adversary.intercept(
            c.peer,
            c.victim,
            i as u64,
            &c.coord,
            0.2,
            c.rtt,
            &c.victim_coord,
        ));
        i += 1;
    }) * 1e9
}

fn workload_intercepts(sim: &Sim, nodes: usize) -> Vec<Intercept> {
    let mut calls = Vec::new();
    for n in (0..sim.len()).filter(|&n| !sim.is_malicious(n)).take(nodes) {
        for &p in sim.peers_of(n) {
            calls.push(Intercept {
                peer: p,
                victim: n,
                coord: sim.coordinate(p).clone(),
                rtt: sim.network().base_rtt(n, p).max(0.1),
                victim_coord: sim.coordinate(n).clone(),
            });
        }
    }
    calls
}

// ---------------------------------------------------------------- wire

/// Mean ns per `encode` and per `decode` over a message mix.
fn wire_ns(messages: &[Message]) -> (f64, f64) {
    let encoded: Vec<Vec<u8>> = messages.iter().filter_map(|m| encode(m).ok()).collect();
    let mut i = 0;
    let enc = per_call(|| {
        black_box(encode(&messages[i % messages.len()]).ok());
        i += 1;
    });
    let mut j = 0;
    let dec = per_call(|| {
        black_box(decode(&encoded[j % encoded.len()]).ok());
        j += 1;
    });
    (enc * 1e9, dec * 1e9)
}

/// The replies the daemon sends a client at `coordinate`: the generator
/// decodes these.
fn replies(client: u64, coordinate: &Coordinate) -> [Message; 2] {
    [
        Message::ProbeReply {
            nonce: client,
            coordinate: coordinate.clone(),
            local_error: 0.2,
            certificate: None,
        },
        Message::UpdateVerdict {
            nonce: client,
            disposition: Disposition::Accepted,
            innovation: 0.01,
            threshold: 0.1,
        },
    ]
}

// ----------------------------------------------------------------- svc

/// Replay `stream` through a fresh `ServiceCore`, batched at the
/// window size, one class at a time. Returns µs per probe, µs per claim
/// and the claims the replay rejected.
fn core_replay(stream: &[(Kind, Vec<u8>)]) -> (f64, f64, u64) {
    let mut core = ServiceCore::new(ServiceConfig::default());
    let setup = [
        encode(&svc::surveyor_register()),
        encode(&Message::ProbeRequest { nonce: 0 }),
    ];
    for m in setup.iter().flatten() {
        core.process_batch(&[m.as_slice()], 0);
    }
    let mut now = 1;
    let mut time_class = |kind: Kind, core: &mut ServiceCore| {
        let items: Vec<&[u8]> = stream
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, b)| b.as_slice())
            .collect();
        let t = Instant::now();
        for batch in items.chunks(WINDOW) {
            black_box(core.process_batch(batch, now));
            now += 1;
        }
        ratio(t.elapsed().as_secs_f64() * 1e6, items.len() as f64)
    };
    let probe_us = time_class(Kind::Probe, &mut core);
    let claim_us = time_class(Kind::Claim, &mut core);
    let rejected = core
        .counters()
        .iter()
        .find(|(n, _)| n == "svc.claims_rejected")
        .map_or(0, |(_, v)| *v);
    (probe_us, claim_us, rejected)
}

// ----------------------------------------------------------------- par

fn par_dispatch_us() -> f64 {
    let mut items = vec![0u64; 1024];
    per_call(|| {
        black_box(ices_par::par_map_mut(&mut items, |i, x| {
            *x = x.wrapping_add(i as u64);
        }));
    }) * 1e6
}

// --------------------------------------------------------- the metrics

/// Untraced/traced pairs of cells a simulator's traced run makes (with a
/// journal-off cell after each pair when the journal is on).
const SIM_PAIRS: usize = 3;
/// The same for the service, whose cells are short.
const SVC_PAIRS: usize = 7;

/// Per-layer metrics a workload may not produce, set to 0 first so
/// every workload reports the same names.
fn zero_defaults(m: &mut Metrics) {
    for name in [
        "core.reprieves",
        "core.replacements",
        "core.filter_refreshes",
        "netsim.lost_probes",
        "netsim.retried_probes",
        "netsim.evictions",
        "netsim.node_down_ticks",
        "attack.active_lies",
        "svc.rx_datagrams",
        "svc.certs_issued",
    ] {
        m.set(name, 0.0, "count");
    }
    m.set("obs.journal_bytes", 0.0, "bytes");
    for (name, unit) in [
        ("netsim.probe_ns", "ns"),
        ("vivaldi.step_ns", "ns"),
        ("nps.round_us", "us"),
        ("attack.intercept_ns", "ns"),
        ("wire.encode_ns", "ns"),
        ("wire.decode_ns", "ns"),
        ("svc.core_probe_us", "us"),
        ("svc.core_claim_us", "us"),
        ("par.dispatch_us", "us"),
    ] {
        m.set(name, 0.0, unit);
    }
    for name in [
        "core.bank_share",
        "netsim.probe_share",
        "vivaldi.step_share",
        "nps.solver_share",
        "attack.intercept_share",
        "svc.core_share",
        "wire.share",
        "core.calibrate_share",
        "core.arm_share",
        "sim.accuracy_share",
        "obs.finish_journal_share",
        "obs.journal_overhead_share",
        "par.speedup",
        "sim.median_rel_error",
    ] {
        m.set(name, 0.0, "ratio");
    }
}

/// Median over pairs of `with / without - 1`.
fn paired_overhead(with: &[f64], without: &[f64]) -> f64 {
    let mut shares: Vec<f64> = with
        .iter()
        .zip(without)
        .map(|(a, b)| a / b - 1.0)
        .collect();
    median(&mut shares)
}

/// (max − min) / median of `values`.
fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    let mid = median(&mut v);
    let (lo, hi) = v
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    ratio(hi - lo, mid)
}

/// Set the tracing overhead and print it beside the untraced noise.
fn trace_overhead(m: &mut Metrics, traced: &[f64], untraced: &[f64]) {
    let overhead = paired_overhead(traced, untraced);
    let noise = spread(untraced);
    m.set("trace.overhead_share", overhead, "ratio");
    m.set("trace.untraced_spread", noise, "ratio");
    println!(
        "  tracing overhead {overhead:+.4} of the cell (median of {} pairs); untraced cells spread {noise:.4} (max-min over median)",
        traced.len()
    );
}

fn print_e2e(label: &str, setup_s: f64, clean_rate: f64, secured_rate: f64, cell_s: f64) {
    println!(
        "  {label:<12} setup {setup_s:.4} s, clean {clean_rate:.0} ops/s, secured {secured_rate:.0} ops/s, cell {cell_s:.4} s"
    );
}

fn print_sim_cell(label: &str, c: &Cell) {
    print_e2e(
        label,
        c.setup_s,
        c.clean_steps as f64 / c.clean_s,
        c.vetted() as f64 / c.attack_s,
        c.cell_s,
    );
}

/// Run a cell of the run's first scenario, turning a panic into an
/// error.
fn try_cell(
    spec: &Spec,
    args: &Args,
    tracer: &mut Tracer,
    journal: bool,
) -> Result<(Cell, Leftover), String> {
    let seed = sims::scenario_seed(args.seed, 0);
    catch_unwind(AssertUnwindSafe(|| {
        sims::run_cell(spec, args, seed, tracer, journal)
    }))
    .map_err(|_| "cell panicked".to_string())
}

fn failed(name: &str, attempted: u64, e: String) -> Outcome {
    eprintln!("{name}: CHECK FAILED: {e}");
    Outcome {
        correct: false,
        attempted: attempted.max(1),
        failed: attempted.max(1),
        metrics: Metrics::default(),
    }
}

pub fn sim_traced(spec: &Spec, args: &Args) -> Outcome {
    sim_traced_inner(spec, args).unwrap_or_else(|(attempted, e)| failed(spec.name, attempted, e))
}

fn sim_traced_inner(spec: &Spec, args: &Args) -> Result<Outcome, (u64, String)> {
    let mut attempted = 0u64;
    let mut first: Option<Cell> = None;
    let (mut plain_cell_s, mut plain_attack_s) = (Vec::new(), Vec::new());
    let mut traced_cell_s = Vec::new();
    let mut off_attack_s = Vec::new();
    let mut last = None;
    let journal_off = Spec {
        journal: false,
        ..*spec
    };
    println!("end-to-end numbers of the traced run's cells (not reported as metrics):");
    // Untraced, traced and journal-off cells alternate, so that a slow
    // period of the host falls on each kind alike.
    for pair in 0..SIM_PAIRS {
        let (plain, _) = try_cell(spec, args, &mut Tracer::new(false), spec.journal)
            .map_err(|e| (attempted, e))?;
        attempted += plain.clean_steps + plain.attack_steps;
        sims::check(spec, &plain, first.as_ref()).map_err(|e| (attempted, e))?;
        print_sim_cell(&format!("untraced {pair}"), &plain);
        plain_cell_s.push(plain.cell_s);
        plain_attack_s.push(plain.attack_s);
        first.get_or_insert(plain);

        let mut tracer = Tracer::new(true);
        let (cell, left) =
            try_cell(spec, args, &mut tracer, spec.journal).map_err(|e| (attempted, e))?;
        attempted += cell.clean_steps + cell.attack_steps;
        sims::check(spec, &cell, first.as_ref()).map_err(|e| (attempted, e))?;
        print_sim_cell(&format!("traced {pair}"), &cell);
        traced_cell_s.push(cell.cell_s);

        if spec.journal {
            let (off, _) = try_cell(&journal_off, args, &mut Tracer::new(false), false)
                .map_err(|e| (attempted, e))?;
            attempted += off.clean_steps + off.attack_steps;
            sims::check(&journal_off, &off, None).map_err(|e| (attempted, e))?;
            print_sim_cell(&format!("no journal {pair}"), &off);
            off_attack_s.push(off.attack_s);
        }
        last = Some((tracer, cell, left));
    }
    let Some((tracer, cell, left)) = last else {
        return Err((attempted, "no cell ran".to_string()));
    };
    println!("spans of the last traced cell:");
    tracer.print();

    let mut m = Metrics::default();
    zero_defaults(&mut m);
    println!("overheads:");
    trace_overhead(&mut m, &traced_cell_s, &plain_cell_s);

    // Re-runs that isolate one layer's effect on the attack phase.
    if spec.journal {
        let overhead = paired_overhead(&plain_attack_s, &off_attack_s);
        m.set("obs.journal_overhead_share", overhead, "ratio");
        println!(
            "  journal overhead {overhead:+.4} of the attack phase (median of {} pairs); untraced attack phases spread {:.4}",
            off_attack_s.len(),
            spread(&plain_attack_s)
        );
    }
    if !spec.faults {
        let (seq, _) = ices_par::with_threads(1, || {
            try_cell(spec, args, &mut Tracer::new(false), spec.journal)
        })
        .map_err(|e| (attempted, e))?;
        attempted += seq.clean_steps + seq.attack_steps;
        sims::check(spec, &seq, first.as_ref()).map_err(|e| (attempted, e))?;
        let base = median(&mut plain_attack_s.clone());
        m.set("par.speedup", seq.attack_s / base, "ratio");
        println!(
            "  one thread: attack phase {:.4} s vs median {base:.4} s at width {}",
            seq.attack_s,
            ices_par::max_threads()
        );
    }

    // Counts the run produced.
    let r = &cell.report;
    let c = &r.confusion;
    let (tpr, fpr) = cell.rates();
    m.set("count.clean_ops", cell.clean_steps as f64, "count");
    m.set("count.secured_ops", cell.attack_steps as f64, "count");
    m.set("count.vetted", cell.vetted() as f64, "count");
    m.set(
        "count.rejected",
        (c.true_positives + c.false_positives) as f64,
        "count",
    );
    m.set("core.reprieves", r.reprieves as f64, "count");
    m.set("core.replacements", r.replacements as f64, "count");
    m.set("core.filter_refreshes", r.filter_refreshes as f64, "count");
    m.set("netsim.lost_probes", r.faults.lost_probes as f64, "count");
    m.set(
        "netsim.retried_probes",
        r.faults.retried_probes as f64,
        "count",
    );
    m.set("netsim.evictions", r.faults.evictions as f64, "count");
    m.set(
        "netsim.node_down_ticks",
        r.faults.node_down_ticks as f64,
        "count",
    );
    m.set(
        "attack.active_lies",
        r.adversary.active_lies as f64,
        "count",
    );
    m.set("obs.journal_bytes", cell.journal_bytes as f64, "bytes");
    m.set("detect.tpr", tpr, "ratio");
    m.set("detect.fpr", fpr, "ratio");
    m.set("sim.median_rel_error", cell.median_rel_error, "ratio");
    m.set("phase.setup_s", cell.setup_s, "s");
    m.set("phase.clean_s", cell.clean_s, "s");
    m.set("phase.secured_s", cell.attack_s, "s");
    // With 18 or 10 passes a cell, the p99 pass is the slowest one.
    let us = |passes: &[f64]| passes.iter().map(|s| s * 1e6).collect::<Vec<f64>>();
    m.set(
        "tail.clean_p99_us",
        quantile(&mut us(&cell.clean_pass_s), 0.99),
        "us",
    );
    m.set(
        "tail.secured_p99_us",
        quantile(&mut us(&cell.attack_pass_s), 0.99),
        "us",
    );
    m.set(
        "core.calibrate_share",
        cell.calibrate_s / cell.cell_s,
        "ratio",
    );
    m.set("core.arm_share", cell.arm_s / cell.cell_s, "ratio");
    m.set("sim.accuracy_share", cell.accuracy_s / cell.cell_s, "ratio");
    m.set(
        "obs.finish_journal_share",
        cell.finish_journal_s / cell.cell_s,
        "ratio",
    );

    // Per-call costs on the workload's own inputs.
    let sim = &left.sim;
    let vivaldi = matches!(sim, Sim::Vivaldi(_));
    let seed = args.seed;
    let params = sim
        .registry()
        .all()
        .first()
        .map(|s| s.params)
        .unwrap_or_else(svc::surveyor_params);
    let armed_slots = sim.armed_nodes();
    let reject_share = ratio(
        (c.true_positives + c.false_positives) as f64,
        cell.vetted() as f64,
    );
    let samples = workload_samples(sim, 256);
    // Every node's peers, so lookups touch the whole topology as the
    // phase does.
    let pairs: Vec<(usize, usize)> = (0..sim.len())
        .flat_map(|n| sim.peers_of(n).iter().map(move |&p| (n, p)))
        .collect();
    let (bank_ns, bank_reject_share) = bank_ns_per_slot(params, armed_slots, reject_share, seed);
    let probe_ns = probe_ns(sim.network(), &pairs);
    let intercept_ns = intercept_ns(&*left.adversary, &workload_intercepts(sim, 64));
    m.set("core.bank_ns_per_slot", bank_ns, "ns");
    m.set("netsim.probe_ns", probe_ns, "ns");
    m.set("attack.intercept_ns", intercept_ns, "ns");
    m.set("par.dispatch_us", par_dispatch_us(), "us");
    println!(
        "per-call costs on the workload's own inputs; wire, svc and {} are not run here and read 0",
        if vivaldi { "nps" } else { "vivaldi" }
    );
    println!(
        "  bank sweep: {armed_slots} slots, target reject share {reject_share:.4}, measured {bank_reject_share:.4}"
    );

    // Shares of the attack phase. The pool runs probe, intercept and
    // embedding step for every node in parallel; the bank sweep runs in
    // the sequential merge.
    let width = ices_par::max_threads().max(1) as f64;
    let pool_s = cell.attack_s * width;
    let passes = cell.attack_pass_s.len() as f64;
    let total_steps = (cell.clean_steps + cell.attack_steps) as f64;
    let retries = r.faults.retried_probes as f64 * cell.attack_steps as f64 / total_steps;
    let probes = cell.attack_steps as f64 + retries;
    let bank_share = bank_ns * 1e-9 * cell.vetted() as f64 / cell.attack_s;
    let probe_share = probe_ns * 1e-9 * probes / pool_s;
    let intercept_share = intercept_ns * 1e-9 * cell.attack_steps as f64 / pool_s;
    let applied = cell
        .attack_steps
        .saturating_sub(c.true_positives + c.false_positives) as f64;
    let (step_share, solver_share) = if vivaldi {
        let flat: Vec<PeerSample> = samples.iter().flatten().cloned().collect();
        let step_ns = vivaldi_step_ns(&flat, seed);
        m.set("vivaldi.step_ns", step_ns, "ns");
        (step_ns * 1e-9 * applied / pool_s, 0.0)
    } else {
        let round_us = nps_round_us(&samples, seed);
        m.set("nps.round_us", round_us, "us");
        let positioned = (0..sim.len())
            .filter(|&n| !sim.peers_of(n).is_empty())
            .count() as f64;
        (0.0, round_us * 1e-6 * positioned * passes / pool_s)
    };
    m.set("core.bank_share", bank_share, "ratio");
    m.set("netsim.probe_share", probe_share, "ratio");
    m.set("attack.intercept_share", intercept_share, "ratio");
    m.set("vivaldi.step_share", step_share, "ratio");
    m.set("nps.solver_share", solver_share, "ratio");
    m.set(
        "secured.unattributed_share",
        1.0 - bank_share - probe_share - intercept_share - step_share - solver_share,
        "ratio",
    );
    Ok(Outcome {
        correct: true,
        attempted,
        failed: 0,
        metrics: m,
    })
}

pub fn svc_traced(args: &Args, daemon_cpu: Option<usize>) -> Outcome {
    svc_traced_inner(args, daemon_cpu)
        .unwrap_or_else(|(attempted, e)| failed("svc-loopback", attempted, e))
}

fn svc_traced_inner(args: &Args, daemon_cpu: Option<usize>) -> Result<Outcome, (u64, String)> {
    let seed = args.seed;
    let mut attempted = 0u64;
    let run = |tracer: &mut Tracer, record: bool| {
        catch_unwind(AssertUnwindSafe(|| {
            svc::run_cell(seed, tracer, record, daemon_cpu)
        }))
        .map_err(|_| (1, "cell panicked".to_string()))?
    };
    let rate = |c: &svc::Cell| {
        (
            c.clean.n.sent as f64 / c.clean_s,
            c.secured.n.sent as f64 / c.secured_s,
        )
    };
    let mut first = None;
    let (mut plain_cell_s, mut traced_cell_s) = (Vec::new(), Vec::new());
    let mut last = None;
    println!("end-to-end numbers of the traced run's cells (not reported as metrics):");
    for pair in 0..SVC_PAIRS {
        for traced in [false, true] {
            let mut tracer = Tracer::new(traced);
            let cell = run(&mut tracer, traced).map_err(|(n, e)| (attempted + n, e))?;
            attempted += cell.total().sent;
            if *first.get_or_insert(cell.total()) != cell.total() {
                return Err((
                    attempted,
                    "counts differ between cells of one seed".to_string(),
                ));
            }
            let (clean, secured) = rate(&cell);
            let label = if traced { "traced" } else { "untraced" };
            print_e2e(
                &format!("{label} {pair}"),
                cell.setup_s,
                clean,
                secured,
                cell.cell_s,
            );
            if traced {
                traced_cell_s.push(cell.cell_s);
                last = Some((tracer, cell));
            } else {
                plain_cell_s.push(cell.cell_s);
            }
        }
    }
    let Some((tracer, mut cell)) = last else {
        return Err((attempted, "no cell ran".to_string()));
    };
    println!("spans of the last traced cell:");
    tracer.print();

    let mut m = Metrics::default();
    zero_defaults(&mut m);
    println!("overheads:");
    trace_overhead(&mut m, &traced_cell_s, &plain_cell_s);

    let total = cell.total();
    let get = |name: &str| {
        cell.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v) as f64
    };
    m.set("count.clean_ops", cell.clean.n.sent as f64, "count");
    m.set("count.secured_ops", cell.secured.n.sent as f64, "count");
    m.set("count.vetted", total.claims as f64, "count");
    m.set("count.rejected", total.rejected as f64, "count");
    m.set("core.reprieves", total.reprieved as f64, "count");
    m.set("attack.active_lies", total.liar_claims as f64, "count");
    m.set("svc.rx_datagrams", get("svc.rx_datagrams"), "count");
    m.set("svc.certs_issued", get("svc.certs_issued"), "count");
    m.set(
        "detect.tpr",
        ratio(total.liar_rejected as f64, total.liar_claims as f64),
        "ratio",
    );
    m.set(
        "detect.fpr",
        ratio(
            total.honest_rejected as f64,
            (total.claims - total.liar_claims) as f64,
        ),
        "ratio",
    );
    m.set("phase.setup_s", cell.setup_s, "s");
    m.set("phase.clean_s", cell.clean_s, "s");
    m.set("phase.secured_s", cell.secured_s, "s");
    // The daemon arms its certifier and claim intake on the first
    // Surveyor registration.
    m.set("core.arm_share", cell.register_s / cell.cell_s, "ratio");
    let mut probes: Vec<f64> = cell
        .clean
        .probe_us
        .iter()
        .chain(&cell.secured.probe_us)
        .copied()
        .collect();
    m.set("tail.clean_p99_us", quantile(&mut probes, 0.99), "us");
    m.set(
        "tail.secured_p99_us",
        quantile(&mut cell.secured.claim_us, 0.99),
        "us",
    );
    println!(
        "  diagnostic p99.9: probe {:.1} us, claim {:.1} us",
        quantile(&mut probes, 0.999),
        quantile(&mut cell.secured.claim_us, 0.999)
    );

    // Per-call costs on the workload's own inputs.
    let stream: Vec<(Kind, Vec<u8>)> = cell
        .clean
        .sent_bytes
        .drain(..)
        .chain(cell.secured.sent_bytes.drain(..))
        .collect();
    let (core_probe_us, core_claim_us, replay_rejected) = core_replay(&stream);
    if replay_rejected != total.rejected {
        return Err((
            attempted,
            format!(
                "in-process replay rejected {replay_rejected} claims, the daemon {}",
                total.rejected
            ),
        ));
    }
    let mut messages: Vec<Message> = stream.iter().filter_map(|(_, b)| decode(b).ok()).collect();
    messages.extend(
        cell.plans
            .iter()
            .take(256)
            .flat_map(|p| replies(p.id, &p.coordinate)),
    );
    let (encode_ns, decode_ns) = wire_ns(&messages);
    let reject_share = ratio(total.rejected as f64, total.claims as f64);
    let (bank_ns, _) = bank_ns_per_slot(svc::surveyor_params(), WINDOW, reject_share, seed);
    m.set("core.bank_ns_per_slot", bank_ns, "ns");
    m.set("wire.encode_ns", encode_ns, "ns");
    m.set("wire.decode_ns", decode_ns, "ns");
    m.set("svc.core_probe_us", core_probe_us, "us");
    m.set("svc.core_claim_us", core_claim_us, "us");
    println!(
        "per-call costs on the workload's own inputs; netsim, vivaldi, nps, attack and par are not run here and read 0"
    );

    // Shares of the generator's pass time (clean + secured passes): the
    // daemon core and the generator's codec; the rest is sockets and
    // wake-ups. The bank sweep is part of the core's claim cost.
    let wall = cell.clean_s + cell.secured_s;
    let core_s =
        (total.probes as f64 * core_probe_us + total.claims as f64 * core_claim_us) * 1e-6;
    let wire_s = total.sent as f64 * (encode_ns + decode_ns) * 1e-9;
    let bank_share = bank_ns * 1e-9 * total.claims as f64 / wall;
    m.set("core.bank_share", bank_share, "ratio");
    m.set("svc.core_share", core_s / wall, "ratio");
    m.set("wire.share", wire_s / wall, "ratio");
    m.set(
        "secured.unattributed_share",
        1.0 - (core_s + wire_s) / wall,
        "ratio",
    );
    Ok(Outcome {
        correct: true,
        attempted,
        failed: 0,
        metrics: m,
    })
}
