//! Golden sealed-record bytes: pins `record_hash()` of the records
//! every verdict producer seals on a fresh verifier, so a change to
//! how a verdict is assembled cannot silently change the bytes that
//! audit chains and fleet transitions cite.
//!
//! Each case starts from a fresh verifier (the sealed stats snapshot
//! is verifier-wide, so sharing one across cases would couple them).
//! The `challenge-reused` session case needs private session state to
//! reach and is pinned next to the session in `rap_track::protocol`.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use rap_serve::frame::encode_frame;
use rap_serve::{
    AttestClient, ClientConfig, FrameType, RoundEvent, RoundHook, Server, ServerConfig,
};
use rap_track::{
    CfaEngine, Challenge, EngineConfig, Report, VerdictRecord, Verifier, VerifierSession,
};

fn deployed() -> (rap_link::LinkedProgram, workloads::Workload) {
    let w = workloads::by_name("fibcall").expect("fibcall workload exists");
    let linked =
        rap_link::link(&w.module, 0, rap_link::LinkOptions::default()).expect("workload links");
    (linked, w)
}

fn key() -> rap_track::Key {
    rap_track::device_key("golden")
}

fn verifier(linked: &rap_link::LinkedProgram) -> Verifier {
    Verifier::new(key(), linked.image.clone(), linked.map.clone())
}

fn attest(
    linked: &rap_link::LinkedProgram,
    w: &workloads::Workload,
    chal: Challenge,
) -> Vec<Report> {
    let mut machine = mcu_sim::Machine::new(linked.image.clone());
    (w.attach)(&mut machine);
    CfaEngine::new(key())
        .attest(
            &mut machine,
            &linked.map,
            chal,
            EngineConfig {
                max_instrs: w.max_instrs * 2,
                watermark: Some(256),
            },
        )
        .expect("benign attestation runs")
        .reports
}

fn hex(record: &VerdictRecord) -> String {
    record
        .record_hash()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

fn assert_golden(case: &str, record: &VerdictRecord, expected: &str) {
    assert_eq!(
        hex(record),
        expected,
        "{case}: sealed record bytes changed ({})",
        record.render()
    );
}

#[test]
fn verify_record_hashes_are_pinned() {
    let (linked, w) = deployed();
    let chal = Challenge::from_seed(7);
    let reports = attest(&linked, &w, chal);

    let (record, result) = verifier(&linked).verify_record("golden-dev", 3, chal, &reports);
    assert!(result.is_ok() && record.accepted());
    assert_golden(
        "verify_record accept",
        &record,
        "85544fa552011e50f3c90d6fa44567db7a4fdaf9065cbedaf6a547be6aebda75",
    );

    let (record, result) =
        verifier(&linked).verify_record("golden-dev", 4, Challenge::from_seed(8), &reports);
    assert!(result.is_err() && !record.accepted());
    assert_golden(
        "verify_record reject",
        &record,
        "cf233853eb531d97f28eddea907702f0e007152c29ce3e402d910b50acfc374d",
    );
}

#[test]
fn check_response_record_hashes_are_pinned() {
    let (linked, w) = deployed();
    let session = || VerifierSession::from_verifier(verifier(&linked), b"golden-secret");

    let mut s = session();
    let chal = s.issue_challenge();
    let (record, result) = s.check_response_record("golden-dev", &attest(&linked, &w, chal));
    assert!(result.is_ok() && record.accepted());
    assert_golden(
        "check_response_record accept",
        &record,
        "c87f062fe636430070c62e31add0bd5a9ca8b03c3072fe51f24fb94bf3467157",
    );

    let mut s = session();
    let reports = attest(&linked, &w, Challenge::from_seed(9));
    let (record, result) = s.check_response_record("golden-dev", &reports);
    assert!(result.is_err());
    assert_eq!(record.outcome(), "no-outstanding-challenge");
    assert_golden(
        "check_response_record no-outstanding",
        &record,
        "60679cf1ced37d08cf2462d7184a06461473d402609a2a7d149310239339f903",
    );
}

#[test]
fn serve_wire_rejection_hash_is_pinned() {
    let (linked, _w) = deployed();
    let seen: Arc<Mutex<Vec<VerdictRecord>>> = Arc::default();
    let sink = Arc::clone(&seen);
    let config = ServerConfig {
        session_secret: b"golden-secret".to_vec(),
        round_hook: Some(RoundHook::new(move |event| {
            let RoundEvent::Verdict { record, .. } = event else {
                return;
            };
            sink.lock().unwrap().push(record.clone());
        })),
        ..ServerConfig::default()
    };
    let server = Server::start(verifier(&linked), "127.0.0.1:0", config).expect("binds");
    let client = AttestClient::new(
        server.local_addr().to_string(),
        ClientConfig {
            read_timeout: Duration::from_secs(10),
            ..ClientConfig::default()
        },
    );
    let mut conn = client.open("golden-dev").expect("opens");
    let (ft, _chal) = conn.read_next().expect("challenge arrives");
    assert_eq!(ft, FrameType::Challenge);
    conn.send_raw(&encode_frame(FrameType::Attest, b"not a report stream"))
        .expect("writes");
    let (ft, _verdict) = conn.read_next().expect("verdict arrives");
    assert_eq!(ft, FrameType::Verdict);
    drop(conn);
    server.shutdown();

    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 1, "one sealed record per round");
    assert_eq!(seen[0].outcome(), "wire");
    assert_golden(
        "serve wire rejection",
        &seen[0],
        "1e4c87f2b76c3f878e94e806223619f04d46537549366cd7d934bb453b364edd",
    );
}
