//! Workload definitions and the seeded round generator.
//!
//! The prover side is simulated once per run: the workload executes on
//! the simulated MCU under RAP-Track and the signed evidence is kept.
//! Answering a challenge re-signs that evidence, because the HMAC over
//! the log is the only part of a report that depends on the challenge.
//! Everything the server receives is derived from the run seed, but the
//! seed itself never leaves this process.

use std::time::Instant;

use rap_link::{link, LinkOptions, LinkedProgram};
use rap_track::{
    device_key, encode_stream, CfaEngine, Challenge, DictParams, EngineConfig, Key, Report,
    SubPathDict, Violation,
};

/// Key seed every simulated device attests under (`rap serve --key`).
pub const FLEET_KEY_SEED: &str = "servebench-fleet";

/// Dictionary mining parameters of the `prime_dict` workload.
pub const DICT_PARAMS: DictParams = DictParams {
    top_k: 32,
    min_support: 3,
    max_len: 16,
};

/// One round in this many is tampered on workloads that tamper.
pub const TAMPER_EVERY: u64 = 16;

/// A benchmark workload: which program, how it is attested and served,
/// and the open-loop rate of its paced blocks.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub program: &'static str,
    pub watermark: Option<usize>,
    pub dict: bool,
    pub audit: bool,
    pub tamper: bool,
    /// Rounds per second offered in paced blocks, across all slots.
    pub paced_rate: f64,
    /// Rounds one device session runs before the slot rotates to the
    /// next device.
    pub rounds_per_session: u64,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "syringe_audit",
        program: "syringe",
        watermark: None,
        dict: false,
        audit: true,
        tamper: true,
        paced_rate: 12000.0,
        rounds_per_session: 64,
    },
    Spec {
        name: "prime_plain",
        program: "prime",
        watermark: Some(448),
        dict: false,
        audit: false,
        tamper: false,
        paced_rate: 400.0,
        rounds_per_session: 8,
    },
    Spec {
        name: "prime_dict",
        program: "prime",
        watermark: Some(448),
        dict: true,
        audit: false,
        tamper: false,
        paced_rate: 950.0,
        rounds_per_session: 8,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

pub fn workload(spec: &Spec) -> workloads::Workload {
    workloads::by_name(spec.program).expect("benchmark programs exist in the workload suite")
}

pub fn fleet_key() -> Key {
    device_key(FLEET_KEY_SEED)
}

/// The offline phase: link, and for dictionary workloads mine the
/// dictionary the way `rap profile` does (profiling key, challenge 0).
pub struct Offline {
    pub linked: LinkedProgram,
    pub dict: Option<SubPathDict>,
    pub link_ms: f64,
    pub mine_ms: f64,
}

pub fn offline(spec: &Spec) -> Offline {
    let w = workload(spec);
    let t = Instant::now();
    let linked = link(&w.module, 0, LinkOptions::default()).expect("benchmark program links");
    let link_ms = ms(t);
    let t = Instant::now();
    let dict = spec.dict.then(|| {
        let engine = CfaEngine::new(device_key("rap-profile"));
        let mut machine = mcu_sim::Machine::new(linked.image.clone());
        let att = engine
            .attest(
                &mut machine,
                &linked.map,
                Challenge::from_seed(0),
                EngineConfig {
                    watermark: spec.watermark,
                    ..EngineConfig::default()
                },
            )
            .expect("profiling run attests");
        let h_mem = att.reports[0].h_mem;
        SubPathDict::mine(&att.combined_log(), h_mem, spec.name, DICT_PARAMS)
    });
    let mine_ms = if spec.dict { ms(t) } else { 0.0 };
    Offline {
        linked,
        dict,
        link_ms,
        mine_ms,
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Evidence from one attested run of the workload on the simulated MCU.
pub struct Evidence {
    key: Key,
    reports: Vec<Report>,
    pub attest_ms: f64,
    pub sim_instrs: u64,
    pub cycles: u64,
}

impl Evidence {
    pub fn attest(spec: &Spec, off: &Offline) -> Evidence {
        let w = workload(spec);
        let mut engine = CfaEngine::new(fleet_key());
        if let Some(dict) = &off.dict {
            engine = engine.with_dict(dict.entries().to_vec());
        }
        let mut machine = mcu_sim::Machine::new(off.linked.image.clone());
        (w.attach)(&mut machine);
        let t = Instant::now();
        let att = engine
            .attest(
                &mut machine,
                &off.linked.map,
                Challenge::from_seed(0),
                EngineConfig {
                    watermark: spec.watermark,
                    max_instrs: w.max_instrs * 2,
                },
            )
            .expect("benign attestation runs");
        Evidence {
            key: fleet_key(),
            attest_ms: ms(t),
            sim_instrs: att.outcome.instrs,
            cycles: att.outcome.cycles,
            reports: att.reports,
        }
    }

    pub fn reports(&self) -> usize {
        self.reports.len()
    }

    /// The report stream answering `chal`, with `tamper` applied.
    pub fn respond(
        &self,
        chal: Challenge,
        tamper: Option<Tamper>,
        stale: Challenge,
    ) -> Vec<Report> {
        let signed_for = match tamper {
            Some(Tamper::StaleChallenge) => stale,
            _ => chal,
        };
        let mut reports: Vec<Report> = self
            .reports
            .iter()
            .enumerate()
            .map(|(seq, r)| {
                let mut log = r.log.clone();
                if let Some(Tamper::DivergingLog { pick }) = tamper {
                    if seq == self.diverging_report() {
                        let i = (pick % log.mtb.len() as u64) as usize;
                        log.mtb[i].source ^= 0x4;
                    }
                }
                Report::new(
                    &self.key, signed_for, r.h_mem, log, seq as u32, r.is_final, r.overflow,
                )
            })
            .collect();
        if let Some(Tamper::BadTag) = tamper {
            reports[0].tag[0] ^= 0x01;
        }
        reports
    }

    /// The ATTEST payload answering `chal`.
    pub fn payload(&self, chal: Challenge, tamper: Option<Tamper>, stale: Challenge) -> Vec<u8> {
        encode_stream(&self.respond(chal, tamper, stale))
    }

    /// The first report with MTB packets: the one a diverging-log
    /// tamper edits.
    fn diverging_report(&self) -> usize {
        self.reports
            .iter()
            .position(|r| !r.log.mtb.is_empty())
            .expect("the workload records MTB packets")
    }
}

/// The three ways a tampered round departs from the honest evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tamper {
    /// One bit of the first report's tag flipped.
    BadTag,
    /// Honest log, signed for a challenge the server already consumed.
    StaleChallenge,
    /// One MTB packet's source address changed, then re-signed with the
    /// device key, so only replay can catch it.
    DivergingLog { pick: u64 },
}

impl Tamper {
    /// The rejection the tamper implies. Every check is the server's
    /// wire verdict detail: `violation: ` followed by the violation's
    /// display text.
    pub fn expected(&self) -> Expect {
        match self {
            Tamper::BadTag => Expect::Reject {
                kind: "BadTag",
                detail_prefix: format!("violation: {}", Violation::BadTag { seq: 0 }),
            },
            Tamper::StaleChallenge => Expect::Reject {
                kind: "ChallengeMismatch",
                detail_prefix: format!("violation: {}", Violation::ChallengeMismatch),
            },
            // The detail names the addresses, so only its fixed start
            // is compared.
            Tamper::DivergingLog { .. } => Expect::Reject {
                kind: "UnexpectedSource",
                detail_prefix: "violation: packet source ".to_string(),
            },
        }
    }
}

/// What the server must answer for one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// Accepted, with the replay's event and step counts.
    Accept { events: u32, steps: u64 },
    /// Rejected with the violation its tamper implies.
    Reject {
        kind: &'static str,
        detail_prefix: String,
    },
}

impl Expect {
    pub fn matches(&self, accepted: bool, events: u32, steps: u64, detail: &str) -> bool {
        match self {
            Expect::Accept {
                events: e,
                steps: s,
            } => accepted && events == *e && steps == *s,
            Expect::Reject { detail_prefix, .. } => {
                !accepted && detail.starts_with(detail_prefix.as_str())
            }
        }
    }
}

/// SplitMix64, the repository's deterministic generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut rng = SplitMix64::new(seed ^ a.wrapping_mul(0xA24B_AED4_963E_E407));
    rng.next_u64();
    let mut rng = SplitMix64::new(rng.next_u64() ^ b.wrapping_mul(0x9FB2_1C65_1E98_DF25));
    rng.next_u64()
}

/// The seed's choices for one connection slot: which device each
/// session presents, and which rounds are tampered and how.
#[derive(Debug, Clone)]
pub struct SlotPlan {
    seed: u64,
    slot: u64,
    tampering: bool,
    rng: SplitMix64,
    block: u64,
    block_pick: (u64, Tamper),
}

impl SlotPlan {
    pub fn new(seed: u64, slot: u64, tampering: bool) -> SlotPlan {
        SlotPlan {
            seed,
            slot,
            tampering,
            rng: SplitMix64::new(mix(seed, slot, 0x7A3B)),
            block: u64::MAX,
            block_pick: (0, Tamper::BadTag),
        }
    }

    /// The device id of this slot's `session`-th session. Ids are fresh
    /// per session, so the seed decides the shard each session lands
    /// on and the order in which shards are visited.
    pub fn device(&self, session: u64) -> String {
        format!(
            "dev-{:016x}",
            mix(self.seed, self.slot, session.wrapping_add(1))
        )
    }

    /// The tamper of this slot's `round`-th round (rounds are numbered
    /// across sessions, in send order, and queried in that order). In
    /// each block of [`TAMPER_EVERY`] rounds exactly one is tampered.
    pub fn tamper(&mut self, round: u64) -> Option<Tamper> {
        if !self.tampering {
            return None;
        }
        let block = round / TAMPER_EVERY;
        if block != self.block {
            self.block = block;
            let pos = self.rng.next_u64() % TAMPER_EVERY;
            let kind = match self.rng.next_u64() % 3 {
                0 => Tamper::BadTag,
                1 => Tamper::StaleChallenge,
                _ => Tamper::DivergingLog {
                    pick: self.rng.next_u64(),
                },
            };
            self.block_pick = (pos, kind);
        }
        let (pos, kind) = self.block_pick;
        (round % TAMPER_EVERY == pos).then_some(kind)
    }

    /// The challenge a stale round is signed for before this slot has
    /// consumed any real one.
    pub fn initial_stale(&self) -> Challenge {
        Challenge::from_seed(mix(self.seed, self.slot, 0x57A1E))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_track::Verifier;

    fn setup(name: &str) -> (Spec, Offline, Evidence, Verifier) {
        let spec = spec(name).unwrap();
        let off = offline(&spec);
        let ev = Evidence::attest(&spec, &off);
        let mut b = Verifier::builder()
            .key(fleet_key())
            .image(off.linked.image.clone())
            .map(off.linked.map.clone());
        if let Some(d) = &off.dict {
            b = b.dict(d.clone());
        }
        (spec, off, ev, b.build().unwrap())
    }

    #[test]
    fn every_tamper_is_rejected_with_the_kind_it_implies() {
        let (_, _, ev, v) = setup("syringe_audit");
        let chal = Challenge::from_seed(11);
        let stale = Challenge::from_seed(10);
        let honest = ev.respond(chal, None, stale);
        assert!(v.verify(chal, &honest).is_ok());
        let mut tampers = vec![Tamper::BadTag, Tamper::StaleChallenge];
        tampers.extend((0..64).map(|pick| Tamper::DivergingLog { pick }));
        for t in tampers {
            let err = v
                .verify(chal, &ev.respond(chal, Some(t), stale))
                .unwrap_err();
            let Expect::Reject {
                kind,
                detail_prefix,
            } = t.expected()
            else {
                unreachable!()
            };
            assert_eq!(err.kind(), kind, "{t:?}");
            assert!(
                format!("violation: {err}").starts_with(&detail_prefix),
                "{t:?}: {err}"
            );
        }
    }

    #[test]
    fn plan_tampers_one_round_per_block_and_repeats_per_seed() {
        let mut a = SlotPlan::new(7, 1, true);
        let mut b = SlotPlan::new(7, 1, true);
        let ta: Vec<_> = (0..TAMPER_EVERY * 50).map(|r| a.tamper(r)).collect();
        let tb: Vec<_> = (0..TAMPER_EVERY * 50).map(|r| b.tamper(r)).collect();
        assert_eq!(ta, tb);
        for block in ta.chunks(TAMPER_EVERY as usize) {
            assert_eq!(block.iter().filter(|t| t.is_some()).count(), 1);
        }
        let mut other = SlotPlan::new(8, 1, true);
        let tc: Vec<_> = (0..TAMPER_EVERY * 50).map(|r| other.tamper(r)).collect();
        assert_ne!(ta, tc, "another seed picks other rounds");
        assert_ne!(a.device(0), SlotPlan::new(7, 0, true).device(0));
        assert!(SlotPlan::new(7, 0, false).tamper(3).is_none());
    }

    #[test]
    fn dictionary_workload_compresses_the_same_run() {
        let (_, _, plain, _) = setup("prime_plain");
        let (_, _, dict, v) = setup("prime_dict");
        let chal = Challenge::from_seed(3);
        let payload = |e: &Evidence| e.payload(chal, None, chal).len();
        assert_eq!(plain.reports(), 6);
        assert!(payload(&dict) * 4 < payload(&plain));
        assert!(v.verify(chal, &dict.respond(chal, None, chal)).is_ok());
    }
}
