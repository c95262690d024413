//! # rap-fleet — the active fleet control plane
//!
//! RAP-Track's verifier judges one attestation round at a time; this
//! crate turns a stream of those judgements into *fleet management*,
//! the ACFA-style auditing loop the ROADMAP's north star asks for:
//! continuously challenge every registered device, react to verdicts
//! with a declarative [`Policy`], and guarantee a remediation path for
//! devices that fail.
//!
//! The pieces, each its own module:
//!
//! - [`state`]: the per-device state machine
//!   (`Healthy → Suspect → Quarantined → Reprovisioning → Healthy`)
//!   and the [`Policy`] thresholds that drive it. Pure logic on a
//!   logical clock — no I/O, no wall time — which is what makes the
//!   fuzz oracle and the byte-for-byte determinism tests possible.
//! - [`registry`]: the fleet-wide device table, the transition audit
//!   log, a JSON round-trip for persistence and the admin plane, and
//!   [`FleetPlane`] — the shared, locked form with adapters for
//!   rap-serve's round hook and admin-extra extension points.
//! - [`sched`]: the periodic challenge scheduler; quarantined devices
//!   are throttled to every Nth interval.
//! - [`sim`]: a deterministic simulated fleet over loopback TCP —
//!   seeded actors (including a compromisable one that flips to
//!   forged reports mid-run) attesting against a real
//!   [`rap_serve::Server`], exercising compromise → detection →
//!   quarantine → heal end-to-end.
//!
//! The device side needs nothing new: all policy lives server-side
//! (Tiny-CFA's minimal-TCB framing), and the transport is the
//! existing pipelined/resumable rap-serve protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod registry;
pub mod sched;
pub mod sim;
pub mod state;

pub use registry::{FleetPlane, Registry, RegistryParseError, TransitionRecord};
pub use sched::Scheduler;
pub use sim::{run as run_sim, SimConfig, SimError, SimReport};
pub use state::{Cause, DeviceMachine, DeviceState, Event, Policy, Transition};
