//! Fixtures the bench binaries share: the attest-once-then-replicate
//! fleet [`Deployment`] (`scaling`, `obs`) and the loopback serve
//! fixtures (`serve`, `audit`) — the `syringe` deployment, a
//! cached-execution responder and a pipelined client driver.

use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rap_link::{link, LinkOptions, LinkedProgram};
use rap_serve::{AttestClient, ClientConfig, ServerConfig};
use rap_track::{
    device_key, BatchOptions, CfaEngine, Challenge, EngineConfig, FleetJob, Key, Report, Verifier,
};
use workloads::Workload;

/// Pipeline window requested by pipelined-mode bench clients.
pub const WINDOW: u16 = 8;

/// The device key every bench prover and verifier shares.
pub fn bench_key() -> Key {
    device_key("bench")
}

/// A fresh verifier for `linked`: cold replay cache, zeroed stats.
pub fn bench_verifier(linked: &LinkedProgram) -> Verifier {
    Verifier::new(bench_key(), linked.image.clone(), linked.map.clone())
}

/// Links `w` at address 0.
///
/// # Panics
///
/// Panics when the workload fails to link — a harness configuration
/// error.
pub fn linked(w: &Workload) -> LinkedProgram {
    link(&w.module, 0, LinkOptions::default()).expect("workload links")
}

/// Attests one benign execution of `w` under `chal`. Partial reports
/// via the MTB_FLOW watermark: the long workloads outgrow one
/// 512-entry buffer, and multi-report streams are the realistic shape.
fn attest(linked: &LinkedProgram, w: &Workload, chal: Challenge) -> Vec<Report> {
    let mut machine = mcu_sim::Machine::new(linked.image.clone());
    (w.attach)(&mut machine);
    CfaEngine::new(bench_key())
        .attest(
            &mut machine,
            &linked.map,
            chal,
            EngineConfig {
                max_instrs: w.max_instrs * 2,
                watermark: Some(256),
            },
        )
        .unwrap_or_else(|e| panic!("{}: attest: {e}", w.name))
        .reports
}

/// One workload attested once, its report stream replicated across a
/// simulated fleet (same binary, same challenge round).
pub struct Deployment {
    /// The deployed binary.
    pub linked: LinkedProgram,
    /// One verification job per simulated device.
    pub jobs: Vec<FleetJob>,
}

impl Deployment {
    /// Attests `w` and replicates the stream across `devices` devices.
    pub fn replicate(w: &Workload, devices: usize) -> Deployment {
        let linked = linked(w);
        let chal = Challenge::from_seed(7);
        let reports = attest(&linked, w, chal);
        let jobs = (0..devices)
            .map(|device| FleetJob {
                device: format!("{}-{device:03}", w.name),
                chal,
                reports: reports.clone(),
            })
            .collect();
        Deployment { linked, jobs }
    }

    /// One cold-cache fleet verification pass with `threads` workers;
    /// returns the number of jobs verified.
    ///
    /// # Panics
    ///
    /// Panics if any job is rejected — the fleet is benign.
    pub fn verify(&self, threads: usize) -> usize {
        let outcomes = bench_verifier(&self.linked)
            .fleet(BatchOptions::with_threads(threads))
            .run(self.jobs.clone());
        assert!(
            outcomes.iter().all(|o| o.accepted()),
            "benign fleet must verify"
        );
        outcomes.len()
    }
}

/// The small `syringe` deployment the loopback serve benches attest:
/// per-round verify cost is tiny, so protocol and service overheads
/// dominate what they measure.
pub fn deployed() -> (LinkedProgram, Workload) {
    let w = workloads::by_name("syringe").expect("syringe workload exists");
    (linked(&w), w)
}

/// The server configuration the loopback benches share: 4 shards, a
/// [`WINDOW`]-round pipeline and a fixed session secret.
pub fn bench_server_config() -> ServerConfig {
    ServerConfig {
        threads: 4,
        window: WINDOW,
        session_secret: b"bench-secret".to_vec(),
        ..ServerConfig::default()
    }
}

/// Executes the workload once and keeps the evidence; responding to a
/// challenge re-signs the recorded logs under it (the HMAC is the only
/// challenge-dependent part of a report), so per-round prover cost is
/// identical across disciplines and small enough that protocol
/// overhead dominates the measurement.
pub struct CachedResponder {
    reports: Vec<Report>,
}

impl CachedResponder {
    /// Runs `w` once on the simulated MCU and records its reports.
    pub fn new(linked: &LinkedProgram, w: &Workload) -> CachedResponder {
        CachedResponder {
            reports: attest(linked, w, Challenge::from_seed(0)),
        }
    }

    /// The recorded evidence, re-signed under `chal`.
    pub fn respond(&self, chal: Challenge) -> Vec<Report> {
        self.reports
            .iter()
            .enumerate()
            .map(|(seq, r)| {
                Report::new(
                    &bench_key(),
                    chal,
                    r.h_mem,
                    r.log.clone(),
                    seq as u32,
                    r.is_final,
                    r.overflow,
                )
            })
            .collect()
    }
}

/// A client with a deep retry budget (overloaded connects are shed
/// with `ERROR busy`; retries turn that into tail latency rather than
/// failures) requesting a `window`-round pipeline.
pub fn bench_client(addr: SocketAddr, window: u16) -> AttestClient {
    AttestClient::new(
        addr.to_string(),
        ClientConfig {
            retries: 8,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(20),
            read_timeout: Duration::from_secs(30),
            window,
            ..ClientConfig::default()
        },
    )
}

/// One pipelined sample: each of `clients` keeps one connection with
/// [`WINDOW`] rounds in flight. Latency is recorded into `lat` as the
/// mean per-round time on each connection — individual verdicts
/// overlap, so a per-verdict wall time would double-count waiting.
///
/// # Panics
///
/// Panics if a connection fails or a benign round is rejected.
pub fn drive_pipelined(
    addr: SocketAddr,
    responder: &CachedResponder,
    clients: usize,
    rounds: usize,
    lat: &Mutex<Vec<u64>>,
) {
    std::thread::scope(|scope| {
        for i in 0..clients {
            scope.spawn(move || {
                let client = bench_client(addr, WINDOW);
                let mut conn = client
                    .open(&format!("pipelined-{i}"))
                    .expect("connection opens");
                let t0 = Instant::now();
                let verdicts = conn
                    .pipelined(rounds, |chal| responder.respond(chal))
                    .expect("pipelined rounds complete");
                let per_round = (t0.elapsed().as_nanos() as u64) / rounds.max(1) as u64;
                assert!(
                    verdicts.iter().all(|v| v.accepted),
                    "benign rounds must verify"
                );
                lat.lock().unwrap().push(per_round);
            });
        }
    });
}
