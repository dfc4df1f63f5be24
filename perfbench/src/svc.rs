//! The service workload: an in-process `Daemon` on its own thread, driven
//! over loopback UDP by one generator thread with one socket and a fixed
//! window of requests in flight (closed loop).
//!
//! One cell is one daemon lifetime: bind, register a Surveyor, derive the
//! client plans (set-up); one probe-only pass over the client population
//! (the clean phase); [`SECURED_PASSES`] passes in which each client
//! sends a probe and then a claim (the secured phase); a stats check
//! against what the generator sent; shutdown and join.

use crate::affinity;
use crate::trace::Tracer;
use crate::{layers, median, peak_rss_mb, quantile, Args, Metrics, Outcome};
use ices_coord::Coordinate;
use ices_core::wire::{decode, encode, Disposition, Message, MAX_DATAGRAM};
use ices_core::StateSpaceParams;
use ices_svc::{client_claim, ClientPlan, Daemon, ServiceConfig};
use std::io;
use std::net::UdpSocket;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Simulated client population.
pub const CLIENTS: u64 = 4_096;
/// Per-client probability (‰) of being a liar.
pub const LIAR_PERMILLE: u32 = 100;
/// Requests in flight at once.
pub const WINDOW: usize = 8;
/// Probe+claim passes over the population per cell.
const SECURED_PASSES: usize = 4;
/// Nonzero shutdown secret.
const TOKEN: u64 = 0x5EC0_2007;
/// Datagrams `Service::start` sends before the workload: the Surveyor
/// registration and one probe, which comes back certified.
const CONTROL_DATAGRAMS: u64 = 2;
/// A reply later than this counts its request as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(1);

/// The calibration parameters the registered Surveyor distributes.
pub fn surveyor_params() -> StateSpaceParams {
    StateSpaceParams {
        beta: 0.8,
        v_w: 0.001,
        v_u: 0.001,
        w_bar: 0.02,
        w0: 0.1,
        p0: 0.01,
    }
}

pub fn surveyor_register() -> Message {
    Message::SurveyorRegister {
        surveyor: 0,
        coordinate: Coordinate::new(vec![0.0, 0.0], 0.5),
        params: surveyor_params(),
    }
}

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Probe,
    Claim,
}

/// One request of the generator's schedule.
#[derive(Clone, Copy)]
pub struct Request {
    pub kind: Kind,
    pub client: usize,
}

/// The secured passes: each client probes, then claims.
pub fn secured_schedule() -> Vec<Request> {
    (0..SECURED_PASSES)
        .flat_map(|_| {
            (0..CLIENTS as usize)
                .flat_map(|client| [Kind::Probe, Kind::Claim].map(|kind| Request { kind, client }))
        })
        .collect()
}

pub fn clean_schedule() -> Vec<Request> {
    (0..CLIENTS as usize)
        .map(|client| Request {
            kind: Kind::Probe,
            client,
        })
        .collect()
}

/// The wire message for `req`, as nonce `nonce`.
pub fn message(req: Request, nonce: u64, plans: &[ClientPlan]) -> Message {
    match req.kind {
        Kind::Probe => Message::ProbeRequest { nonce },
        Kind::Claim => client_claim(&plans[req.client], nonce),
    }
}

/// What the generator counted in one pass.
#[derive(Default, Clone, Copy, PartialEq, Debug)]
pub struct Counts {
    pub sent: u64,
    pub failed: u64,
    pub probes: u64,
    pub claims: u64,
    pub certified: u64,
    pub accepted: u64,
    pub reprieved: u64,
    pub rejected: u64,
    pub liar_claims: u64,
    pub liar_rejected: u64,
    pub liar_accepted: u64,
    pub honest_rejected: u64,
}

impl Counts {
    pub fn add(mut self, o: Counts) -> Counts {
        self.sent += o.sent;
        self.failed += o.failed;
        self.probes += o.probes;
        self.claims += o.claims;
        self.certified += o.certified;
        self.accepted += o.accepted;
        self.reprieved += o.reprieved;
        self.rejected += o.rejected;
        self.liar_claims += o.liar_claims;
        self.liar_rejected += o.liar_rejected;
        self.liar_accepted += o.liar_accepted;
        self.honest_rejected += o.honest_rejected;
        self
    }
}

/// What the generator saw in one pass.
#[derive(Default)]
pub struct Tally {
    pub n: Counts,
    /// Round trips in µs, by class.
    pub probe_us: Vec<f64>,
    pub claim_us: Vec<f64>,
    /// Encoded requests in send order (kept only when recording).
    pub sent_bytes: Vec<(Kind, Vec<u8>)>,
}

struct Pending {
    nonce: u64,
    req: Request,
    sent: Instant,
}

/// Drive `schedule` through `sock` with [`WINDOW`] requests in flight.
/// A request fails if its reply does not arrive, does not decode, or is
/// of the wrong type or nonce.
fn drive(
    sock: &UdpSocket,
    schedule: &[Request],
    plans: &[ClientPlan],
    nonce: &mut u64,
    record: bool,
) -> Tally {
    let mut t = Tally::default();
    let mut inflight: Vec<Pending> = Vec::with_capacity(WINDOW);
    let mut buf = [0u8; MAX_DATAGRAM + 1];
    let mut next = 0;
    let _ = sock.set_nonblocking(true);
    while next < schedule.len() || !inflight.is_empty() {
        while inflight.len() < WINDOW && next < schedule.len() {
            let req = schedule[next];
            next += 1;
            *nonce += 1;
            t.n.sent += 1;
            match req.kind {
                Kind::Probe => t.n.probes += 1,
                Kind::Claim => t.n.claims += 1,
            }
            let Ok(bytes) = encode(&message(req, *nonce, plans)) else {
                t.n.failed += 1;
                continue;
            };
            if sock.send(&bytes).is_err() {
                t.n.failed += 1;
                continue;
            }
            inflight.push(Pending {
                nonce: *nonce,
                req,
                sent: Instant::now(),
            });
            if record {
                t.sent_bytes.push((req.kind, bytes));
            }
        }
        if inflight.is_empty() {
            continue;
        }
        let len = match recv_polling(sock, &mut buf) {
            Ok(len) => len,
            Err(_) => {
                // Timed out: everything in flight is lost.
                t.n.failed += inflight.len() as u64;
                inflight.clear();
                continue;
            }
        };
        let received = Instant::now();
        let reply = decode(&buf[..len]);
        let reply_nonce = match &reply {
            Ok(Message::ProbeReply { nonce, .. } | Message::UpdateVerdict { nonce, .. }) => {
                Some(*nonce)
            }
            _ => None,
        };
        let Some(at) = reply_nonce.and_then(|n| inflight.iter().position(|p| p.nonce == n)) else {
            // Undecodable, unexpected type, or a nonce not in flight: the
            // request it answered (if any) times out and fails.
            continue;
        };
        let p = inflight.swap_remove(at);
        let us = (received - p.sent).as_secs_f64() * 1e6;
        match (p.req.kind, reply) {
            (Kind::Probe, Ok(Message::ProbeReply { certificate, .. })) => {
                t.n.certified += u64::from(certificate.is_some());
                t.probe_us.push(us);
            }
            (Kind::Claim, Ok(Message::UpdateVerdict { disposition, .. })) => {
                let liar = plans[p.req.client].liar;
                t.n.liar_claims += u64::from(liar);
                match disposition {
                    Disposition::Accepted => {
                        t.n.accepted += 1;
                        t.n.liar_accepted += u64::from(liar);
                    }
                    Disposition::Reprieved => t.n.reprieved += 1,
                    Disposition::Rejected => {
                        t.n.rejected += 1;
                        if liar {
                            t.n.liar_rejected += 1;
                        } else {
                            t.n.honest_rejected += 1;
                        }
                    }
                    // The Surveyor is registered before any claim.
                    Disposition::BadCertificate | Disposition::NotReady => t.n.failed += 1,
                }
                t.claim_us.push(us);
            }
            _ => t.n.failed += 1,
        }
    }
    let _ = sock.set_nonblocking(false);
    t
}

/// Receive one datagram, polling instead of sleeping: the generator's
/// CPU then never idles, and waking an idle virtual CPU costs a round
/// trip through the hypervisor whose time depends on the host's load.
/// Fails when nothing arrives within [`REPLY_TIMEOUT`].
fn recv_polling(sock: &UdpSocket, buf: &mut [u8]) -> io::Result<usize> {
    let start = Instant::now();
    loop {
        match sock.recv(buf) {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock && start.elapsed() < REPLY_TIMEOUT => {
                std::hint::spin_loop()
            }
            other => return other,
        }
    }
}

/// One blocking control round trip.
fn rpc(sock: &UdpSocket, msg: &Message) -> Result<Message, String> {
    let bytes = encode(msg).map_err(|e| format!("encode: {e}"))?;
    sock.send(&bytes).map_err(|e| format!("send: {e}"))?;
    let mut buf = [0u8; MAX_DATAGRAM + 1];
    let len = sock.recv(&mut buf).map_err(|e| format!("recv: {e}"))?;
    decode(&buf[..len]).map_err(|e| format!("decode: {e}"))
}

/// A running daemon and the generator's socket to it.
pub struct Service {
    sock: UdpSocket,
    daemon: Option<JoinHandle<io::Result<()>>>,
    pub daemon_coord: Coordinate,
    pub plans: Vec<ClientPlan>,
    /// The Surveyor registration round trip, which arms the daemon's
    /// certifier and claim intake.
    register_s: f64,
}

impl Service {
    /// Set-up: bind, spawn the daemon, register the Surveyor, learn the
    /// daemon's coordinate, derive the client plans.
    pub fn start(
        seed: u64,
        tracer: &mut Tracer,
        daemon_cpu: Option<usize>,
    ) -> Result<Self, String> {
        let config = ServiceConfig {
            shutdown_token: TOKEN,
            ..ServiceConfig::default()
        };
        let (bound, _) = tracer.time("bind", || -> Result<_, String> {
            let mut daemon =
                Daemon::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
            let addr = daemon
                .local_addr()
                .map_err(|e| format!("local_addr: {e}"))?;
            let handle = std::thread::spawn(move || {
                if let Some(cpu) = daemon_cpu {
                    affinity::pin(0, cpu);
                }
                daemon.run()
            });
            let sock = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
            sock.connect(addr).map_err(|e| format!("connect: {e}"))?;
            sock.set_read_timeout(Some(REPLY_TIMEOUT))
                .map_err(|e| format!("timeout: {e}"))?;
            Ok((sock, handle))
        });
        let (sock, handle) = bound?;
        let mut svc = Self {
            sock,
            daemon: Some(handle),
            daemon_coord: Coordinate::new(vec![0.0, 0.0], 0.0),
            plans: Vec::new(),
            register_s: 0.0,
        };
        let (ack, register_s) = tracer.time("register", || rpc(&svc.sock, &surveyor_register()));
        svc.register_s = register_s;
        if !matches!(
            ack?,
            Message::RegisterAck {
                registered: true,
                ..
            }
        ) {
            return Err("Surveyor registration refused".to_string());
        }
        let (probe, _) = tracer.time("control_probe", || {
            rpc(&svc.sock, &Message::ProbeRequest { nonce: 0 })
        });
        let Message::ProbeReply {
            coordinate,
            certificate,
            ..
        } = probe?
        else {
            return Err("unexpected reply to the control probe".to_string());
        };
        if certificate.is_none() {
            return Err("no certificate after Surveyor registration".to_string());
        }
        svc.daemon_coord = coordinate;
        let coord = &svc.daemon_coord;
        svc.plans = tracer
            .time("client_plans", || {
                (0..CLIENTS)
                    .map(|id| ClientPlan::derive(seed, id, LIAR_PERMILLE, coord))
                    .collect()
            })
            .0;
        Ok(svc)
    }

    /// Ask for the daemon's counters, check them against what the
    /// generator sent and saw, then shut the daemon down and join it.
    fn finish(mut self, t: &Counts, tracer: &mut Tracer) -> Result<Vec<(String, u64)>, String> {
        let (stats, _) = tracer.time("stats", || rpc(&self.sock, &Message::StatsRequest));
        let Message::StatsReply { counters } = stats? else {
            return Err("unexpected reply to StatsRequest".to_string());
        };
        let get = |name: &str| {
            counters
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        let expect = [
            // The stats request itself is counted too.
            ("svc.rx_datagrams", t.sent + CONTROL_DATAGRAMS + 1),
            ("svc.probes", t.probes + 1),
            ("svc.claims", t.claims),
            ("svc.claims_accepted", t.accepted),
            ("svc.claims_reprieved", t.reprieved),
            ("svc.claims_rejected", t.rejected),
            ("svc.certs_issued", t.certified + 1),
            ("svc.decode_errors", 0),
            ("svc.bad_certs", 0),
            ("svc.not_ready", 0),
        ];
        let mut mismatch = Vec::new();
        for (name, want) in expect {
            if get(name) != want {
                mismatch.push(format!("{name} daemon {} generator {want}", get(name)));
            }
        }
        let (down, _) = tracer.time("shutdown", || -> Result<(), String> {
            match rpc(&self.sock, &Message::Shutdown { token: TOKEN }) {
                Ok(Message::StatsReply { .. }) => {}
                other => return Err(format!("shutdown not acknowledged: {other:?}")),
            }
            self.join()
        });
        down?;
        if mismatch.is_empty() {
            Ok(counters)
        } else {
            Err(format!("daemon counters disagree: {}", mismatch.join("; ")))
        }
    }

    fn join(&mut self) -> Result<(), String> {
        match self.daemon.take() {
            Some(h) => h
                .join()
                .map_err(|_| "daemon panicked".to_string())?
                .map_err(|e| format!("daemon: {e}")),
            None => Ok(()),
        }
    }
}

impl Drop for Service {
    /// A cell that failed part-way still stops its daemon.
    fn drop(&mut self) {
        if self.daemon.is_some() {
            if let Ok(bytes) = encode(&Message::Shutdown { token: TOKEN }) {
                let _ = self.sock.send(&bytes);
            }
            let _ = self.join();
        }
    }
}

/// One cell's measurements.
pub struct Cell {
    pub setup_s: f64,
    pub clean_s: f64,
    pub secured_s: f64,
    pub cell_s: f64,
    pub clean: Tally,
    pub secured: Tally,
    pub counters: Vec<(String, u64)>,
    pub plans: Vec<ClientPlan>,
    pub register_s: f64,
}

impl Cell {
    pub fn total(&self) -> Counts {
        self.clean.n.add(self.secured.n)
    }
}

pub fn run_cell(
    seed: u64,
    tracer: &mut Tracer,
    record: bool,
    daemon_cpu: Option<usize>,
) -> Result<Cell, (u64, String)> {
    let clean_schedule = clean_schedule();
    let secured_schedule = secured_schedule();
    let planned = (clean_schedule.len() + secured_schedule.len()) as u64;
    let setup_start = tracer.enter("setup");
    let svc = Service::start(seed, tracer, daemon_cpu);
    let setup_s = tracer.exit(setup_start);
    let svc = svc.map_err(|e| (planned, e))?;
    let cell_start = tracer.enter("cell");
    let mut nonce = 0;
    let (clean, clean_s) = tracer.time("clean_pass", || {
        drive(&svc.sock, &clean_schedule, &svc.plans, &mut nonce, record)
    });
    let (secured, secured_s) = tracer.time("secured_passes", || {
        drive(&svc.sock, &secured_schedule, &svc.plans, &mut nonce, record)
    });
    let plans = svc.plans.clone();
    let register_s = svc.register_s;
    let total = clean.n.add(secured.n);
    let counters = svc.finish(&total, tracer);
    let cell_s = tracer.exit(cell_start);
    let counters = counters.map_err(|e| (planned, e))?;
    if total.failed > 0 {
        return Err((planned, format!("{} requests failed", total.failed)));
    }
    // Detection quality is checked, not timed: no liar's claim is
    // accepted outright, and most honest claims are not rejected.
    let honest = total.claims - total.liar_claims;
    if total.liar_accepted > 0 || total.honest_rejected * 2 > honest {
        return Err((
            planned,
            format!(
                "{} of {} liar claims accepted, {} of {honest} honest claims rejected",
                total.liar_accepted, total.liar_claims, total.honest_rejected
            ),
        ));
    }
    Ok(Cell {
        setup_s,
        clean_s,
        secured_s,
        cell_s,
        clean,
        secured,
        counters,
        plans,
        register_s,
    })
}

/// Give the daemon and the generator a CPU each (the first two this
/// process may use): a round trip then always crosses the same two
/// cores, instead of depending on where the scheduler places two busy
/// threads. Returns the daemon's CPU.
fn place_threads() -> Option<usize> {
    let cpus = affinity::allowed_cpus();
    let (&daemon, &generator) = match cpus.as_slice() {
        [] => return None,
        [only] => (only, only),
        [first, second, ..] => (first, second),
    };
    if !affinity::pin(0, generator) {
        println!("svc-loopback: could not pin threads; running unpinned");
        return None;
    }
    println!("svc-loopback: daemon on CPU {daemon}, generator on CPU {generator}");
    Some(daemon)
}

pub fn run(args: &Args) -> Outcome {
    let daemon_cpu = place_threads();
    if args.trace {
        return layers::svc_traced(args, daemon_cpu);
    }
    let start = Instant::now();
    let mut tracer = Tracer::new(false);
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut setups = Vec::new();
    let mut clean_rate = Vec::new();
    let mut secured_rate = Vec::new();
    let mut cell_s = Vec::new();
    let (mut probe_p50, mut claim_p50) = (vec![], vec![]);
    let mut first_verdicts: Option<Counts> = None;
    while start.elapsed().as_secs_f64() < args.seconds || setups.is_empty() {
        match catch_unwind(AssertUnwindSafe(|| {
            run_cell(args.seed, &mut tracer, false, daemon_cpu)
        })) {
            Ok(Ok(mut cell)) => {
                let total = cell.total();
                attempted += total.sent;
                // Verdicts depend only on arrival order, which the closed
                // loop keeps per window; they must repeat cell to cell.
                match &first_verdicts {
                    Some(first) if *first != total => {
                        eprintln!("svc-loopback: CHECK FAILED: counts {total:?} differ from the first cell's {first:?}");
                        failed += total.sent;
                        correct = false;
                    }
                    Some(_) => {}
                    None => first_verdicts = Some(total),
                }
                setups.push(cell.setup_s);
                clean_rate.push(cell.clean.n.sent as f64 / cell.clean_s);
                secured_rate.push(cell.secured.n.sent as f64 / cell.secured_s);
                cell_s.push(cell.cell_s);
                let mut probes: Vec<f64> = cell
                    .clean
                    .probe_us
                    .drain(..)
                    .chain(cell.secured.probe_us.drain(..))
                    .collect();
                probe_p50.push(quantile(&mut probes, 0.50));
                claim_p50.push(quantile(&mut cell.secured.claim_us, 0.50));
            }
            Ok(Err((planned, e))) => {
                eprintln!("svc-loopback: CHECK FAILED: {e}");
                attempted += planned;
                failed += planned;
                correct = false;
                break;
            }
            Err(_) => {
                eprintln!("svc-loopback: CHECK FAILED: cell panicked");
                correct = false;
                attempted += 1;
                failed += 1;
                break;
            }
        }
    }
    let mut m = Metrics::default();
    m.set("setup_s", median(&mut setups), "s");
    m.set("clean_ops_per_s", median(&mut clean_rate), "ops/s");
    m.set("secured_ops_per_s", median(&mut secured_rate), "ops/s");
    m.set("cell_s", median(&mut cell_s), "s");
    m.set("clean_p50_us", median(&mut probe_p50), "us");
    m.set("secured_p50_us", median(&mut claim_p50), "us");
    m.set("peak_rss_mb", peak_rss_mb(), "MiB");
    println!("svc-loopback: {} cells", setups.len());
    Outcome {
        correct,
        attempted: attempted.max(1),
        failed,
        metrics: m,
    }
}
