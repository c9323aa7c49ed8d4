//! # mssim — a small SPICE-class analog circuit simulator
//!
//! `mssim` is a from-scratch analog/mixed-signal circuit simulation engine
//! built to reproduce the experiments of *"A Pulse Width Modulation based
//! Power-elastic and Robust Mixed-signal Perceptron Design"* (DATE 2019)
//! without a proprietary simulator. It provides:
//!
//! * a [`Circuit`] netlist builder with resistors, capacitors, independent
//!   sources, voltage-controlled switches, diodes and level-1 MOSFETs,
//! * time-domain [`Waveform`]s (DC, pulse/PWM, piecewise-linear, sine),
//! * modified nodal analysis (MNA) with a dense partial-pivoting LU solver,
//! * a unified [`Session`] entry point running every analysis — DC
//!   operating point (Newton–Raphson with gmin and source stepping), DC
//!   sweep, AC, noise and fixed-step trapezoidal / backward-Euler
//!   transient ([`analysis::Transient`]) — with shared lint pre-flight
//!   and observer registration,
//! * structured instrumentation ([`telemetry`]): counters, histograms and
//!   typed events from the homotopy, Newton and stepping loops, at zero
//!   cost when no observer is attached,
//! * the workspace's one JSON codec ([`json`]), used by the JSONL trace
//!   writer and every recorded artifact,
//! * waveform post-processing ([`trace::Trace`]: averages, ripple, RMS,
//!   settling detection),
//! * parallel parameter sweeps and Monte-Carlo drivers ([`sweep`]),
//! * pre-flight static analysis of netlists ([`lint`]): singular-matrix
//!   topologies are rejected with named nodes/elements before any solve,
//! * static verification ([`verify`]): structural-solvability analysis
//!   (bipartite matching + Dulmage–Mendelsohn) and a stamp-plan verifier
//!   that proves compiled plans sound before Newton ever runs,
//! * numeric abstract interpretation ([`analyze`]): interval analysis of
//!   compiled stamp plans over declared parameter ranges (singular or
//!   sign-indefinite pivots, overflow, cancellation, certified condition
//!   bounds), a Krawczyk interval solver turning abstract stamps into
//!   guaranteed DC solution enclosures with static verdict triage
//!   ([`triage_circuit`]), plus static fault collapsing for campaign
//!   universes,
//! * a transient convergence-rescue ladder
//!   ([`Session::transient_rescued`]): timestep cutting, backward-Euler
//!   fallback and per-point gmin shunting, degrading gracefully to a
//!   partial waveform instead of aborting,
//! * non-destructive fault injection ([`faults`]): stuck switches and
//!   MOSFETs, open/shorted/drifted resistors, leaky capacitors, net
//!   bridges, supply brownout and PWM jitter, applied to a copy of a
//!   borrowed circuit for robustness campaigns.
//!
//! The engine follows the same numerical formulation as the core loop of a
//! production SPICE: nonlinear devices are linearised around the current
//! iterate and stamped as Norton companions, reactive elements become
//! integration companions, and the resulting linear system is solved by LU
//! factorisation each Newton iteration.
//!
//! ## Quickstart: an RC low-pass step response
//!
//! ```
//! use mssim::prelude::*;
//!
//! # fn main() -> Result<(), mssim::Error> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let out = ckt.node("out");
//! ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(1.0));
//! ckt.resistor("R1", vin, out, 1e3);
//! ckt.capacitor("C1", out, Circuit::GND, 1e-6);
//!
//! let tran = Transient::new(1e-5, 10e-3).use_initial_conditions();
//! let result = Session::new(&ckt).transient(&tran)?;
//! let v_end = result.voltage(out).last_value();
//! assert!((v_end - 1.0).abs() < 1e-3); // fully charged after 10 tau
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod analyze;
pub mod complex;
pub mod elements;
pub mod error;
pub mod export;
pub mod faults;
pub mod json;
pub mod linear;
pub mod lint;
pub mod netlist;
pub mod session;
pub mod sweep;
pub mod telemetry;
pub mod trace;
pub mod units;
pub mod verify;
pub mod waveform;

pub use analyze::{
    analyze_circuit, triage_circuit, AnalyzeReport, Ranges, StaticVerdict, TriageVerdict,
    VerdictBands,
};
pub use error::Error;
pub use netlist::{Circuit, ElementId, NodeId};
pub use session::Session;
pub use verify::{verify_circuit, PlanCode, PlanViolation, VerifyReport};
pub use waveform::Waveform;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::analysis::{
        AcResult, AdaptiveConfig, DcSolution, DcSweepResult, IntegrationMethod, NoiseResult,
        RescueIncident, RescuePolicy, RescueReport, Solution, Transient, TransientOutcome,
        TransientResult,
    };
    pub use crate::analyze::{
        analyze_circuit, collapse_faults, dc_enclosure, plan_key, solve_enclosure, triage_circuit,
        AnalyzeReport, Collapse, CollapseMember, DcEnclosure, Enclosure, Interval, Ranges,
        StaticVerdict, TriageVerdict, VerdictBands,
    };
    pub use crate::elements::{MosParams, MosPolarity};
    pub use crate::error::Error;
    pub use crate::faults::{Fault, LabeledFault};
    pub use crate::lint::{lint, LintCode, LintConfig, LintReport, Severity};
    pub use crate::netlist::{Circuit, ElementId, NodeId};
    pub use crate::session::{LimitOpts, Session};
    pub use crate::telemetry::{JsonlWriter, MemoryRecorder, Observer, Summary, Tee};
    pub use crate::trace::Trace;
    pub use crate::units::*;
    pub use crate::verify::{verify_circuit, PlanCode, PlanViolation, VerifyReport};
    pub use crate::waveform::Waveform;
}
