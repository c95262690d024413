//! Fleet control plane scaling: pure registry + scheduler cost, no
//! network. The serve bench already prices the transport; this one
//! answers "how many devices can one control plane tick?" — the
//! steady-state observe+reschedule throughput and the p99 scheduling
//! lag (how long a due device waits inside a slot before its verdict
//! is applied) at 10/100/1000 devices.
//!
//! Run: `cargo bench -p rap-bench --bench fleet_plane -- [--quick]
//! [--json OUT] [--enforce]`

use std::time::Instant;

use rap_bench::harness::{BenchArgs, BenchGroup, BenchReport};
use rap_fleet::{Event, Policy, Registry, Scheduler};
use rap_obs::Json;

const FLEET_SIZES: [usize; 3] = [10, 100, 1000];

fn device_name(i: usize) -> String {
    format!("dev-{i:04}")
}

/// Builds a registered fleet and a scheduler with every device due at
/// t=0.
fn build(devices: usize, policy: &Policy) -> (Registry, Scheduler) {
    let mut registry = Registry::new(policy.clone());
    let mut scheduler = Scheduler::new();
    for i in 0..devices {
        let name = device_name(i);
        registry.register(&name, 0);
        scheduler.add(&name, 0);
    }
    (registry, scheduler)
}

/// Drives `slots` scheduler slots of a benign steady state: every due
/// device gets an Accepted verdict and is rescheduled. Returns the
/// number of rounds applied.
fn drive(registry: &mut Registry, scheduler: &mut Scheduler, policy: &Policy, slots: u64) -> u64 {
    let mut rounds = 0u64;
    for slot in 0..slots {
        let now_ms = slot * policy.round_interval_ms;
        registry.tick_all(now_ms);
        for device in scheduler.due(now_ms) {
            let fired = registry.observe(&device, now_ms, Event::Accepted);
            assert!(fired.is_empty(), "benign fleet must not transition");
            let state = registry.device(&device).expect("registered").state();
            scheduler.reschedule(&device, now_ms, state, policy);
            rounds += 1;
        }
    }
    rounds
}

/// One instrumented pass: per device-round, the wall-clock delay
/// between the slot becoming processable and that device's verdict
/// landing. This is the in-slot queueing a real driver adds on top of
/// the interval — the tail is what matters at 1000 devices.
fn p99_sched_lag_ns(registry: &mut Registry, scheduler: &mut Scheduler, policy: &Policy) -> u64 {
    let mut lags = Vec::new();
    for slot in 0..32u64 {
        let now_ms = slot * policy.round_interval_ms;
        registry.tick_all(now_ms);
        let slot_start = Instant::now();
        for device in scheduler.due(now_ms) {
            let _ = registry.observe(&device, now_ms, Event::Accepted);
            let state = registry.device(&device).expect("registered").state();
            scheduler.reschedule(&device, now_ms, state, policy);
            lags.push(slot_start.elapsed().as_nanos() as u64);
        }
    }
    lags.sort_unstable();
    lags[(lags.len().saturating_sub(1)) * 99 / 100]
}

fn main() {
    let args = BenchArgs::parse();
    let group = BenchGroup::new("fleet_plane").samples(if args.quick { 3 } else { 10 });
    let mut report = BenchReport::default();
    let policy = Policy::default();
    let slots = if args.quick { 16 } else { 64 };

    for devices in FLEET_SIZES {
        let rounds_per_iter = {
            let (mut registry, mut scheduler) = build(devices, &policy);
            drive(&mut registry, &mut scheduler, &policy, slots)
        };
        let stats = group.bench(&format!("steady_state_{devices}dev"), || {
            let (mut registry, mut scheduler) = build(devices, &policy);
            std::hint::black_box(drive(&mut registry, &mut scheduler, &policy, slots))
        });
        let rounds_per_sec = rounds_per_iter as f64 / stats.median.as_secs_f64();

        let (mut registry, mut scheduler) = build(devices, &policy);
        let p99_lag = p99_sched_lag_ns(&mut registry, &mut scheduler, &policy);

        println!(
            "  {devices:>4} devices: {:.0} rounds/s, p99 sched lag {} ns",
            rounds_per_sec, p99_lag
        );
        report.record_with(
            &format!("fleet_plane/steady_state_{devices}dev"),
            stats,
            [
                ("devices", Json::Uint(devices as u64)),
                ("rounds_per_iter", Json::Uint(rounds_per_iter)),
                ("rounds_per_sec", Json::Num(rounds_per_sec)),
                ("p99_sched_lag_ns", Json::Uint(p99_lag)),
            ],
        );
    }

    if let Some(path) = &args.json_out {
        report.write(path).expect("write bench json");
        eprintln!("bench json -> {path}");
    }
}
