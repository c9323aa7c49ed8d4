//! Transient analysis under a fixed-step or an adaptive step controller.
//!
//! Capacitors and inductors are replaced by integration companions
//! (trapezoidal by default, backward Euler on the first step and on
//! request) and the resulting nonlinear system is solved by damped
//! Newton–Raphson at every time point, warm-started from the previous
//! solution.
//!
//! `Stepper` takes one implicit step of a `State`, `Integrator::advance`
//! adds the rescue ladder for both controllers, `Recorder` keeps the
//! waveforms.

use crate::analysis::dcop::dc_operating_point_impl;
use crate::analysis::mna::{CapCompanion, IndCompanion, MnaLayout, NewtonOpts, SolveContext};
use crate::analysis::plan::{EngineSel, PlanMode, SolverEngine};
use crate::analysis::solution::Solution;
use crate::elements::Element;
use crate::error::Error;
use crate::netlist::{Circuit, ElementId, NodeId};
use crate::telemetry::{Event, Probe};
use crate::trace::{Trace, TraceData};

/// Numerical integration scheme for reactive elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntegrationMethod {
    /// First-order, L-stable; strongly damped.
    BackwardEuler,
    /// Second-order, A-stable; the default (first step still uses
    /// backward Euler to absorb initial-condition discontinuities).
    #[default]
    Trapezoidal,
}

/// Settings for adaptive time-stepping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Smallest step the controller may take, seconds.
    pub min_dt: f64,
    /// Local-truncation-error tolerance: the step is accepted when the
    /// predictor–corrector discrepancy is below
    /// `tol · (1 + |v|)` on every node.
    pub tolerance: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            min_dt: 0.0, // resolved to max_dt/10⁶ at run time
            tolerance: 1e-3,
        }
    }
}

/// Policy for the transient convergence-rescue ladder (see
/// [`Session::transient_rescued`](crate::session::Session::transient_rescued)).
///
/// When a time step refuses to converge the ladder tries, in order:
///
/// 1. **`dt_cut`** — the step is re-integrated as `2^k` sub-steps for
///    `k = 1..=max_step_cuts`, keeping the caller's integration method
///    (exponential backoff: every retry halves the sub-step again);
/// 2. **`be`** — the same progression forced to backward Euler, whose
///    L-stability damps the modes trapezoidal integration can ring on
///    (skipped when the caller already integrates with backward Euler);
/// 3. **`gmin`** — the full step solved with a shunt conductance from
///    every node to ground, walked down [`RescuePolicy::gmin_ladder`] and
///    finishing at zero shunt, each solve warm-starting the next.
///
/// A step no rung can save ends the run early: the caller receives
/// [`TransientOutcome::Partial`] carrying the waveform up to the last
/// accepted step. Every attempt is emitted as an
/// [`Event::RescueAttempt`]; every verdict as an
/// [`Event::RescueOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct RescuePolicy {
    /// Maximum binary timestep cuts tried by the `dt_cut` and `be`
    /// stages (rung `k` splits the failing step into `2^k` sub-steps).
    pub max_step_cuts: u32,
    /// Shunt conductances for the `gmin` stage, strongest first. A final
    /// zero-shunt solve always follows, so an accepted solution is never
    /// polluted by the rescue shunt.
    pub gmin_ladder: Vec<f64>,
    /// Troubled steps rescued before the run is abandoned as partial — a
    /// circuit needing more than this is failing structurally, not
    /// numerically.
    pub max_rescued_steps: usize,
}

impl Default for RescuePolicy {
    fn default() -> Self {
        RescuePolicy {
            max_step_cuts: 4,
            gmin_ladder: vec![1e-3, 1e-6, 1e-9],
            max_rescued_steps: 64,
        }
    }
}

/// One troubled time step and how the rescue ladder fared on it.
#[derive(Debug, Clone, PartialEq)]
pub struct RescueIncident {
    /// Target time of the failing step, seconds.
    pub time: f64,
    /// Ladder rungs tried (sub-step retries, BE retries, gmin solves).
    pub attempts: usize,
    /// Stage that recovered the step (`"dt_cut"`, `"be"` or `"gmin"`);
    /// `None` when the ladder was exhausted.
    pub recovered_by: Option<&'static str>,
}

/// Structured account of every rescue a transient run needed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RescueReport {
    /// One entry per troubled step, in time order.
    pub incidents: Vec<RescueIncident>,
}

impl RescueReport {
    /// `true` when no step needed rescuing.
    pub fn is_clean(&self) -> bool {
        self.incidents.is_empty()
    }

    /// Number of steps the ladder recovered.
    pub fn recovered(&self) -> usize {
        self.incidents
            .iter()
            .filter(|i| i.recovered_by.is_some())
            .count()
    }

    /// Total ladder rungs tried across all incidents.
    pub fn total_attempts(&self) -> usize {
        self.incidents.iter().map(|i| i.attempts).sum()
    }
}

/// Outcome of a transient run executed under a [`RescuePolicy`].
#[derive(Debug, Clone)]
pub enum TransientOutcome {
    /// The run reached `t_stop`, possibly after recovered rescues.
    Complete {
        /// The full waveform set.
        result: TransientResult,
        /// Every rescue the run needed (empty for a clean run).
        rescues: RescueReport,
    },
    /// The rescue ladder ran dry at some time point: the waveform is
    /// valid up to the last accepted step and then stops.
    Partial {
        /// The waveforms up to the last accepted step.
        result: TransientResult,
        /// Every rescue the run attempted, including the fatal one.
        rescues: RescueReport,
        /// The non-convergence that ended the run (stage `"rescue"`).
        error: Error,
    },
}

impl TransientOutcome {
    /// The recorded waveforms, full or partial.
    pub fn result(&self) -> &TransientResult {
        match self {
            TransientOutcome::Complete { result, .. }
            | TransientOutcome::Partial { result, .. } => result,
        }
    }

    /// The rescue report.
    pub fn rescues(&self) -> &RescueReport {
        match self {
            TransientOutcome::Complete { rescues, .. }
            | TransientOutcome::Partial { rescues, .. } => rescues,
        }
    }

    /// `true` when the run stopped before `t_stop`.
    pub fn is_partial(&self) -> bool {
        matches!(self, TransientOutcome::Partial { .. })
    }

    /// Consumes the outcome, keeping the waveforms (full or partial).
    pub fn into_result(self) -> TransientResult {
        match self {
            TransientOutcome::Complete { result, .. }
            | TransientOutcome::Partial { result, .. } => result,
        }
    }
}

/// A configured transient analysis.
///
/// # Examples
///
/// ```
/// use mssim::prelude::*;
///
/// # fn main() -> Result<(), mssim::Error> {
/// let mut ckt = Circuit::new();
/// let inp = ckt.node("in");
/// let out = ckt.node("out");
/// ckt.vsource("V1", inp, Circuit::GND, Waveform::pwm(2.5, 1e6, 0.25));
/// ckt.resistor("R1", inp, out, 10e3);
/// ckt.capacitor("C1", out, Circuit::GND, 1e-9);
/// let result = Session::new(&ckt).transient(&Transient::new(2e-9, 100e-6).use_initial_conditions())?;
/// let avg = result.voltage(out).steady_state_average(1e-6, 10);
/// assert!((avg - 2.5 * 0.25).abs() < 0.05); // PWM average = Vdd · duty
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Transient {
    dt: f64,
    t_stop: f64,
    method: IntegrationMethod,
    uic: bool,
    record_every: usize,
    max_iter: usize,
    adaptive: Option<AdaptiveConfig>,
}

impl Transient {
    /// Creates a transient analysis with time step `dt` running to
    /// `t_stop` (both in seconds).
    ///
    /// The run returns [`Error::InvalidParameter`] if `dt` is not
    /// strictly positive and finite, if `t_stop < dt`, or if `t_stop / dt`
    /// asks for more samples than can be recorded.
    pub fn new(dt: f64, t_stop: f64) -> Self {
        Transient {
            dt,
            t_stop,
            method: IntegrationMethod::default(),
            uic: false,
            record_every: 1,
            max_iter: 200,
            adaptive: None,
        }
    }

    /// Enables adaptive time-stepping: `dt` becomes the *maximum* step,
    /// and the controller shrinks/grows the step from a local-truncation-
    /// error estimate (predictor–corrector discrepancy), never stepping
    /// across a source breakpoint (pulse corners, PWL points) so narrow
    /// pulses cannot be skipped. `record_every` is ignored in adaptive
    /// mode — every accepted point is recorded.
    pub fn adaptive(mut self, config: AdaptiveConfig) -> Self {
        self.adaptive = Some(config);
        self
    }

    /// Skips the DC operating point and starts from capacitor initial
    /// conditions (node voltages start at zero) — SPICE `UIC`.
    pub fn use_initial_conditions(mut self) -> Self {
        self.uic = true;
        self
    }

    /// Selects the integration method.
    pub fn with_method(mut self, method: IntegrationMethod) -> Self {
        self.method = method;
        self
    }

    /// Records only every `n`-th time point (the final point is always
    /// recorded). Reduces memory for long runs. The run returns
    /// [`Error::InvalidParameter`] if `n == 0`.
    pub fn record_every(mut self, n: usize) -> Self {
        self.record_every = n;
        self
    }

    /// Sets the Newton iteration limit per time step. The run returns
    /// [`Error::InvalidParameter`] if `n == 0`.
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        self.max_iter = n;
        self
    }

    /// Runs the analysis.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for an invalid configuration
    /// (see [`Transient::new`]), [`Error::LintRejected`] for broken
    /// netlists (see [`crate::lint`]), [`Error::NonConvergence`] if
    /// Newton iteration fails at some time point, and
    /// [`Error::SingularMatrix`] for under-determined systems.
    #[deprecated(
        since = "0.2.0",
        note = "use `Session::new(&circuit).transient(&tran)` instead"
    )]
    pub fn run(&self, circuit: &Circuit) -> Result<TransientResult, Error> {
        crate::session::Session::new(circuit).transient(self)
    }

    /// The analysis proper, with the solver flavour and instrumentation
    /// handle supplied by [`Session`](crate::Session). Without a `policy`
    /// a non-convergent step is an error; under one it enters the rescue
    /// ladder, and an exhausted ladder ends the run as
    /// [`TransientOutcome::Partial`].
    pub(crate) fn execute(
        &self,
        circuit: &Circuit,
        sel: EngineSel,
        policy: Option<&RescuePolicy>,
        mut probe: Probe<'_>,
    ) -> Result<TransientOutcome, Error> {
        self.check()?;
        let ctx = if self.uic {
            crate::lint::LintContext::TransientUic
        } else {
            crate::lint::LintContext::Dc
        };
        crate::lint::preflight(circuit, "transient", ctx)?;
        probe.emit(Event::AnalysisStart {
            analysis: "transient",
        });
        let layout = MnaLayout::new(circuit);
        let (stepper, state) =
            Stepper::new(circuit, layout, sel, self.uic, self.max_iter, &mut probe)?;
        let mut recorder = Recorder::new(state.x.len(), self.record_every, self.steps())?;
        recorder.record(0.0, &state.x);
        let mut run = Integrator {
            saved: state.clone(),
            stepper,
            state,
            checkpoint: self.adaptive.is_some() || policy.is_some(),
            policy,
            report: RescueReport::default(),
        };
        let partial = match self.adaptive {
            Some(cfg) => self.run_adaptive(cfg, &mut run, &mut recorder, &mut probe)?,
            None => self.run_fixed(&mut run, &mut recorder, &mut probe)?,
        };
        probe.report(&run.stepper.engine, "transient");
        let result = recorder.finish(circuit, &run.stepper.layout);
        let rescues = run.report;
        Ok(match partial {
            None => {
                probe.emit(Event::AnalysisEnd {
                    analysis: "transient",
                });
                TransientOutcome::Complete { result, rescues }
            }
            Some(error) => TransientOutcome::Partial {
                result,
                rescues,
                error,
            },
        })
    }

    /// The one check of the builder's inputs, made before any work.
    fn check(&self) -> Result<(), Error> {
        let reason = if self.dt <= 0.0 || !self.dt.is_finite() {
            "dt must be positive and finite"
        } else if self.t_stop.is_nan() || self.t_stop < self.dt {
            "t_stop must be at least one step"
        } else if self.record_every == 0 {
            "record decimation must be at least 1"
        } else if self.max_iter == 0 {
            "iteration limit must be at least 1"
        } else {
            return Ok(());
        };
        Err(invalid(reason.to_owned()))
    }

    /// Number of fixed steps (saturating at `usize::MAX`).
    fn steps(&self) -> usize {
        (self.t_stop / self.dt).round().max(1.0) as usize
    }

    /// Fixed stepping: step `k` ends at exactly `k·dt`. Returns the error
    /// that ended the run early, if any.
    fn run_fixed(
        &self,
        run: &mut Integrator<'_>,
        recorder: &mut Recorder,
        probe: &mut Probe<'_>,
    ) -> Result<Option<Error>, Error> {
        let mut t_prev = 0.0;
        for step in 1..=self.steps() {
            let t = step as f64 * self.dt;
            let be = self.method == IntegrationMethod::BackwardEuler || step == 1;
            if let Advance::Exhausted(error) = run.advance(t_prev, t, self.dt, be, probe)? {
                recorder.close(t_prev, &run.state.x);
                return Ok(Some(error));
            }
            probe.emit(Event::StepAccepted {
                time: t,
                dt: self.dt,
                lte: 0.0,
            });
            recorder.sample(step, t, &run.state.x);
            t_prev = t;
        }
        recorder.close(t_prev, &run.state.x);
        Ok(None)
    }

    /// Adaptive stepping: the step shrinks and grows on a local-truncation-
    /// error estimate and is cut short to land on every source breakpoint.
    /// Every accepted point is recorded. Returns the error that ended the
    /// run early, if any.
    fn run_adaptive(
        &self,
        cfg: AdaptiveConfig,
        run: &mut Integrator<'_>,
        recorder: &mut Recorder,
        probe: &mut Probe<'_>,
    ) -> Result<Option<Error>, Error> {
        let max_dt = self.dt;
        let min_dt = if cfg.min_dt > 0.0 {
            cfg.min_dt
        } else {
            max_dt * 1e-6
        };
        // Breakpoint lookup across all independent sources.
        let waveforms: Vec<&crate::waveform::Waveform> = run
            .stepper
            .circuit
            .elements()
            .filter_map(|(_, _, e)| match e {
                Element::VoltageSource { waveform, .. }
                | Element::CurrentSource { waveform, .. } => Some(waveform),
                _ => None,
            })
            .collect();
        let next_bp = |t: f64| -> Option<f64> {
            waveforms
                .iter()
                .filter_map(|w| w.next_breakpoint(t))
                .min_by(f64::total_cmp)
        };
        let node_rows = run.stepper.layout.n_nodes - 1;

        let mut t_now = 0.0f64;
        // Start two decades below the ceiling: the error controller
        // has no history yet, so the first accepted step is blind.
        let mut h = (max_dt / 100.0).max(min_dt);
        let mut first = true;
        // Slope history for the predictor.
        let mut x_prev = run.state.x.clone();
        let mut h_last = 0.0f64;
        while t_now < self.t_stop - 1e-18 * self.t_stop.max(1.0) {
            let mut h_try = h.min(self.t_stop - t_now).max(min_dt * 1e-3);
            if let Some(bp) = next_bp(t_now) {
                if bp < t_now + h_try {
                    h_try = (bp - t_now).max(min_dt * 1e-3);
                    probe.emit(Event::EdgeSnap {
                        time: t_now,
                        dt: h_try,
                        breakpoint: bp,
                    });
                }
            }
            let be = self.method == IntegrationMethod::BackwardEuler || first;
            let t_new = t_now + h_try;
            let rescued = match run.advance(t_now, t_new, h_try, be, probe)? {
                Advance::Clean => false,
                Advance::Rescued => true,
                Advance::Exhausted(error) => return Ok(Some(error)),
            };

            // LTE estimate: discrepancy against the linear predictor
            // x_pred = x_prev + slope·h. Only meaningful with history
            // and away from breakpoints just crossed. A rescued step
            // is accepted unconditionally: the predictor comparison
            // is meaningless across a sub-stepped interval.
            let (x, x_save) = (&run.state.x, &run.saved.x);
            let mut err = 0.0f64;
            if !rescued && !first && h_last > 0.0 {
                for r in 0..node_rows {
                    let slope = (x_save[r] - x_prev[r]) / h_last;
                    let pred = x_save[r] + slope * h_try;
                    let scale = 1.0 + x[r].abs();
                    err = err.max((x[r] - pred).abs() / scale);
                }
            }

            if !first && err > cfg.tolerance && h_try > min_dt {
                probe.emit(Event::StepRejected {
                    time: t_new,
                    dt: h_try,
                    lte: err,
                });
                run.rewind();
                h = (h_try * 0.5).max(min_dt);
                continue;
            }

            probe.emit(Event::StepAccepted {
                time: t_new,
                dt: h_try,
                lte: err,
            });
            x_prev.copy_from_slice(&run.saved.x);
            h_last = h_try;
            t_now = t_new;
            first = false;
            recorder.record(t_now, &run.state.x);
            h = if err < cfg.tolerance * 0.25 {
                (h_try * 1.5).min(max_dt)
            } else {
                h_try.min(max_dt)
            };
        }
        Ok(None)
    }
}

/// An invalid transient configuration.
fn invalid(reason: String) -> Error {
    Error::InvalidParameter {
        element: "transient".to_owned(),
        reason,
    }
}

#[derive(Debug, Clone)]
struct SourceInfo {
    element: usize,
    pos: NodeId,
    neg: NodeId,
    branch: usize,
}

/// Recorded waveforms of a transient analysis.
#[derive(Debug, Clone)]
pub struct TransientResult {
    times: Vec<f64>,
    signals: Vec<Vec<f64>>,
    ground: Vec<f64>,
    node_rows: usize,
    n_nodes: usize,
    sources: Vec<SourceInfo>,
    /// `(element index, branch index)` for every branch-current element
    /// (voltage sources and inductors).
    branch_elements: Vec<(usize, usize)>,
}

impl TransientResult {
    /// Recorded sample times.
    pub fn time(&self) -> &[f64] {
        &self.times
    }

    /// Number of recorded samples.
    pub fn samples(&self) -> usize {
        self.times.len()
    }

    /// Voltage waveform of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the analysed circuit.
    pub fn voltage(&self, node: NodeId) -> Trace<'_> {
        let i = node.index();
        assert!(i < self.n_nodes, "node {node} out of range");
        if i == 0 {
            Trace::new(&self.times, &self.ground)
        } else {
            Trace::new(&self.times, &self.signals[i - 1])
        }
    }

    /// Differential voltage waveform `v(a) - v(b)` as owned data.
    ///
    /// # Panics
    ///
    /// Panics if either node does not belong to the analysed circuit.
    pub fn voltage_between(&self, a: NodeId, b: NodeId) -> TraceData {
        let va = self.voltage(a);
        let vb = self.voltage(b);
        let v = va
            .values()
            .iter()
            .zip(vb.values())
            .map(|(x, y)| x - y)
            .collect();
        TraceData::new(self.times.clone(), v)
    }

    /// Branch-current waveform of a voltage source or inductor. For a
    /// voltage source, positive current flows into the `pos` terminal
    /// (SPICE convention); for an inductor, positive current flows from
    /// terminal `a` to terminal `b`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownProbe`] if the element carries no branch
    /// current (resistor, capacitor, ...).
    pub fn branch_current(&self, element: ElementId) -> Result<Trace<'_>, Error> {
        let (_, branch) = self
            .branch_elements
            .iter()
            .find(|(e, _)| *e == element.index())
            .ok_or_else(|| Error::UnknownProbe {
                what: format!("branch current of {element}"),
            })?;
        Ok(Trace::new(
            &self.times,
            &self.signals[self.node_rows + branch],
        ))
    }

    /// Instantaneous power *delivered by* a voltage source:
    /// `(v_pos − v_neg) · (−i_branch)`. Positive for a supply feeding the
    /// circuit.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownProbe`] if the element is not a voltage
    /// source of the analysed circuit.
    pub fn source_power(&self, element: ElementId) -> Result<TraceData, Error> {
        let info = self
            .sources
            .iter()
            .find(|s| s.element == element.index())
            .ok_or_else(|| Error::UnknownProbe {
                what: format!("source power of {element}"),
            })?;
        let vp = self.voltage(info.pos);
        let vn = self.voltage(info.neg);
        let ib = &self.signals[self.node_rows + info.branch];
        let p = vp
            .values()
            .iter()
            .zip(vn.values())
            .zip(ib)
            .map(|((vp, vn), i)| (vp - vn) * (-i))
            .collect();
        Ok(TraceData::new(self.times.clone(), p))
    }
}

impl Solution for TransientResult {
    /// Node voltage waveform over the recorded samples.
    type Voltage = TraceData;
    /// Branch current waveform over the recorded samples.
    type Current = TraceData;

    fn voltage(&self, node: NodeId) -> Result<TraceData, Error> {
        let i = node.index();
        if i >= self.n_nodes {
            return Err(Error::UnknownProbe {
                what: format!("voltage of {node}"),
            });
        }
        let values = if i == 0 {
            self.ground.clone()
        } else {
            self.signals[i - 1].clone()
        };
        Ok(TraceData::new(self.times.clone(), values))
    }

    fn branch_current(&self, element: ElementId) -> Result<TraceData, Error> {
        let trace = TransientResult::branch_current(self, element)?;
        let values = trace.values().to_vec();
        Ok(TraceData::new(self.times.clone(), values))
    }
}

/// Integrator state at one time point: the MNA unknowns and the reactive
/// history the next step's companions are built from.
#[derive(Default)]
struct State {
    /// Node voltages, then branch currents.
    x: Vec<f64>,
    /// Voltage across and current through each capacitor.
    v_prev: Vec<f64>,
    i_prev: Vec<f64>,
    /// Current through and voltage across each inductor.
    il_prev: Vec<f64>,
    vl_prev: Vec<f64>,
}

impl State {
    /// Rewinds the reactive history to `saved` but keeps `x`: the gmin
    /// stage warm-starts each solve from the previous rung's iterate.
    fn rewind_history(&mut self, saved: &State) {
        self.v_prev.clone_from(&saved.v_prev);
        self.i_prev.clone_from(&saved.i_prev);
        self.il_prev.clone_from(&saved.il_prev);
        self.vl_prev.clone_from(&saved.vl_prev);
    }
}

// Written out so that `clone_from` refills the buffers in place; the
// derived `clone_from` allocates a fresh copy of every vector.
impl Clone for State {
    fn clone(&self) -> Self {
        let mut state = State::default();
        state.clone_from(self);
        state
    }

    fn clone_from(&mut self, source: &Self) {
        self.x.clone_from(&source.x);
        self.rewind_history(source);
    }
}

/// A capacitor as the stepper sees it.
struct CapInfo {
    a: NodeId,
    b: NodeId,
    farads: f64,
    ic: f64,
}

/// An inductor as the stepper sees it.
struct IndInfo {
    a: NodeId,
    b: NodeId,
    henries: f64,
    ic: f64,
    branch: usize,
}

/// One implicit integration step: the circuit's reactive elements, their
/// companion buffers and the Newton engine that solves each time point.
struct Stepper<'a> {
    circuit: &'a Circuit,
    layout: MnaLayout,
    caps: Vec<CapInfo>,
    inds: Vec<IndInfo>,
    companions: Vec<CapCompanion>,
    ind_companions: Vec<IndCompanion>,
    engine: SolverEngine,
    opts: NewtonOpts,
}

impl<'a> Stepper<'a> {
    /// Builds the stepper and the state it starts from: the DC operating
    /// point, or the elements' initial conditions under `uic`.
    fn new(
        circuit: &'a Circuit,
        layout: MnaLayout,
        sel: EngineSel,
        uic: bool,
        max_iter: usize,
        probe: &mut Probe<'_>,
    ) -> Result<(Self, State), Error> {
        let mut caps = Vec::new();
        let mut inds = Vec::new();
        for (idx, (_, _, e)) in circuit.elements().enumerate() {
            match (e, layout.branch_of[idx]) {
                (
                    &Element::Capacitor {
                        a,
                        b,
                        farads,
                        initial_voltage: ic,
                    },
                    _,
                ) => caps.push(CapInfo { a, b, farads, ic }),
                (
                    &Element::Inductor {
                        a,
                        b,
                        henries,
                        initial_current: ic,
                    },
                    Some(branch),
                ) => inds.push(IndInfo {
                    a,
                    b,
                    henries,
                    ic,
                    branch,
                }),
                _ => {}
            }
        }

        let mut x = vec![0.0; layout.size()];
        let (v_prev, il_prev) = if uic {
            // Seed the branch unknowns with the initial currents so the
            // first Newton iterate starts consistent.
            for l in &inds {
                x[layout.branch_row(l.branch)] = l.ic;
            }
            (
                caps.iter().map(|c| c.ic).collect(),
                inds.iter().map(|l| l.ic).collect(),
            )
        } else {
            let op = dc_operating_point_impl(circuit, sel, probe.reborrow())?;
            x.copy_from_slice(op.raw());
            (
                caps.iter()
                    .map(|c| op.voltage(c.a) - op.voltage(c.b))
                    .collect(),
                inds.iter()
                    .map(|l| op.raw()[layout.branch_row(l.branch)])
                    .collect(),
            )
        };
        let state = State {
            x,
            v_prev,
            i_prev: vec![0.0; caps.len()],
            il_prev,
            // Zero volts across every inductor: a short at DC, at rest
            // under UIC.
            vl_prev: vec![0.0; inds.len()],
        };
        let stepper = Stepper {
            engine: SolverEngine::new(circuit, &layout, PlanMode::Tran, sel),
            opts: NewtonOpts {
                max_iter,
                ..NewtonOpts::default()
            },
            companions: vec![CapCompanion::default(); caps.len()],
            ind_companions: vec![IndCompanion::default(); inds.len()],
            circuit,
            layout,
            caps,
            inds,
        };
        Ok((stepper, state))
    }

    /// Integrates `s` over one step of size `h` ending at `t_new` —
    /// backward Euler when `be`, trapezoidal otherwise — with a `gshunt`
    /// conductance from every node to ground.
    fn step(
        &mut self,
        s: &mut State,
        t_new: f64,
        h: f64,
        be: bool,
        gshunt: f64,
        probe: &mut Probe<'_>,
    ) -> Result<(), Error> {
        for (k, c) in self.caps.iter().enumerate() {
            let (geq, ieq) = if be {
                let geq = c.farads / h;
                (geq, geq * s.v_prev[k])
            } else {
                let geq = 2.0 * c.farads / h;
                (geq, geq * s.v_prev[k] + s.i_prev[k])
            };
            self.companions[k] = CapCompanion { geq, ieq };
        }
        for (k, l) in self.inds.iter().enumerate() {
            let (geq, ieq) = if be {
                let geq = h / l.henries;
                (geq, s.il_prev[k])
            } else {
                let geq = 0.5 * h / l.henries;
                (geq, s.il_prev[k] + geq * s.vl_prev[k])
            };
            self.ind_companions[k] = IndCompanion { geq, ieq };
        }
        let ctx = SolveContext {
            time: t_new,
            source_scale: 1.0,
            caps: Some(&self.companions),
            inds: Some(&self.ind_companions),
            gshunt,
        };
        probe.solve(
            &mut self.engine,
            self.circuit,
            &self.layout,
            &mut s.x,
            ctx,
            &self.opts,
            "transient",
        )?;
        let v = |node: NodeId| self.layout.node_row(node).map_or(0.0, |r| s.x[r]);
        for (k, c) in self.caps.iter().enumerate() {
            let v_new = v(c.a) - v(c.b);
            s.i_prev[k] = self.companions[k].geq * v_new - self.companions[k].ieq;
            s.v_prev[k] = v_new;
        }
        for (k, l) in self.inds.iter().enumerate() {
            s.il_prev[k] = s.x[self.layout.branch_row(l.branch)];
            s.vl_prev[k] = v(l.a) - v(l.b);
        }
        Ok(())
    }
}

/// What [`Integrator::advance`] made of one step.
enum Advance {
    /// Newton converged on the first try.
    Clean,
    /// The rescue ladder recovered the step.
    Rescued,
    /// The ladder ran dry or its budget was spent: the state is rewound to
    /// the last accepted point and the error ends the run.
    Exhausted(Error),
}

/// The stepper and its state, under the rescue policy that guards every
/// step.
struct Integrator<'a> {
    stepper: Stepper<'a>,
    state: State,
    /// The state before the current step, refilled in place when a rescue
    /// or an adaptive rejection may rewind to it.
    saved: State,
    checkpoint: bool,
    policy: Option<&'a RescuePolicy>,
    report: RescueReport,
}

impl Integrator<'_> {
    /// Takes the step `t_from → t_to` of size `h`. A step that does not
    /// converge walks the rescue ladder under the policy; without one its
    /// error is returned.
    fn advance(
        &mut self,
        t_from: f64,
        t_to: f64,
        h: f64,
        be: bool,
        probe: &mut Probe<'_>,
    ) -> Result<Advance, Error> {
        if self.checkpoint {
            self.saved.clone_from(&self.state);
        }
        let error = match self.stepper.step(&mut self.state, t_to, h, be, 0.0, probe) {
            Ok(()) => return Ok(Advance::Clean),
            Err(e @ Error::NonConvergence { .. }) => e,
            Err(e) => return Err(e),
        };
        let Some(policy) = self.policy else {
            return Err(error);
        };
        let (attempts, stage) = if self.report.incidents.len() >= policy.max_rescued_steps {
            // Rescue budget spent: rewind without burning more solves.
            self.rewind();
            (0, None)
        } else {
            self.ladder(policy, t_from, t_to, be, probe)
        };
        probe.emit(Event::RescueOutcome {
            time: t_to,
            stage: stage.unwrap_or("exhausted"),
            attempts: attempts as u32,
            recovered: stage.is_some(),
        });
        self.report.incidents.push(RescueIncident {
            time: t_to,
            attempts,
            recovered_by: stage,
        });
        if stage.is_some() {
            return Ok(Advance::Rescued);
        }
        Ok(Advance::Exhausted(Error::NonConvergence {
            analysis: "transient",
            time: t_to,
            iterations: self.stepper.opts.max_iter,
            stage: "rescue",
            attempts,
        }))
    }

    /// Walks the rescue ladder over the failing step `t_from → t_target`
    /// from the saved state. Returns the rungs tried and the stage that
    /// recovered the step, or `None` when exhausted, in which case the
    /// state is rewound.
    fn ladder(
        &mut self,
        policy: &RescuePolicy,
        t_from: f64,
        t_target: f64,
        method_be: bool,
        probe: &mut Probe<'_>,
    ) -> (usize, Option<&'static str>) {
        let h_full = t_target - t_from;
        let mut attempts = 0usize;

        // Stages 1 and 2: timestep cutting, first with the caller's method,
        // then forced backward Euler. A BE caller skips the redundant rerun.
        let stages: &[(&'static str, bool)] = if method_be {
            &[("dt_cut", true)]
        } else {
            &[("dt_cut", false), ("be", true)]
        };
        for &(stage, be) in stages {
            let k_first = if stage == "be" { 0 } else { 1 };
            for k in k_first..=policy.max_step_cuts {
                let n_sub = 1u32 << k;
                let h_sub = h_full / f64::from(n_sub);
                self.rewind();
                attempts += 1;
                let mut converged = true;
                for i in 1..=n_sub {
                    let t_new = if i == n_sub {
                        t_target
                    } else {
                        t_from + f64::from(i) * h_sub
                    };
                    if self
                        .stepper
                        .step(&mut self.state, t_new, h_sub, be, 0.0, probe)
                        .is_err()
                    {
                        converged = false;
                        break;
                    }
                }
                probe.emit(Event::RescueAttempt {
                    stage,
                    time: t_target,
                    dt: h_sub,
                    param: 0.0,
                    converged,
                });
                if converged {
                    return (attempts, Some(stage));
                }
            }
        }

        // Stage 3: per-point gmin. Solve the full step (backward Euler) with
        // a shunt to ground, relaxing it rung by rung down to exactly zero;
        // each solve warm-starts the next, so only the final zero-shunt
        // solution is ever committed to the waveform.
        self.rewind();
        for g in policy
            .gmin_ladder
            .iter()
            .copied()
            .chain(std::iter::once(0.0))
        {
            self.state.rewind_history(&self.saved);
            attempts += 1;
            let converged = self
                .stepper
                .step(&mut self.state, t_target, h_full, true, g, probe)
                .is_ok();
            probe.emit(Event::RescueAttempt {
                stage: "gmin",
                time: t_target,
                dt: h_full,
                param: g,
                converged,
            });
            if !converged {
                // Exhausted: rewind so the partial waveform ends at the
                // last accepted step.
                self.rewind();
                return (attempts, None);
            }
        }
        (attempts, Some("gmin"))
    }

    fn rewind(&mut self) {
        self.state.clone_from(&self.saved);
    }
}

/// The waveform recorder: the sample times and one signal per MNA
/// unknown, decimated to every `every`-th fixed step.
struct Recorder {
    every: usize,
    times: Vec<f64>,
    signals: Vec<Vec<f64>>,
}

impl Recorder {
    /// Reserves `steps / every + 2` samples per unknown up front. A count
    /// the allocator refuses is an [`Error::InvalidParameter`], not an
    /// abort: `t_stop / dt` asks for more samples than memory holds.
    fn new(unknowns: usize, every: usize, steps: usize) -> Result<Self, Error> {
        let samples = (steps / every).saturating_add(2);
        let reserve = || {
            let mut signal = Vec::new();
            match signal.try_reserve_exact(samples) {
                Ok(()) => Ok(signal),
                Err(_) => Err(invalid(format!(
                    "t_stop / dt asks for {steps} steps, more samples than can be recorded"
                ))),
            }
        };
        Ok(Recorder {
            every,
            times: reserve()?,
            signals: (0..unknowns).map(|_| reserve()).collect::<Result<_, _>>()?,
        })
    }

    fn record(&mut self, t: f64, x: &[f64]) {
        self.times.push(t);
        for (sig, &val) in self.signals.iter_mut().zip(x) {
            sig.push(val);
        }
    }

    /// Records fixed step `step`, ending at `t`, if the decimation keeps it.
    fn sample(&mut self, step: usize, t: f64, x: &[f64]) {
        if step.is_multiple_of(self.every) {
            self.record(t, x);
        }
    }

    /// Puts the last accepted point on record if decimation skipped it.
    fn close(&mut self, t: f64, x: &[f64]) {
        if self.times.last() != Some(&t) {
            self.record(t, x);
        }
    }

    /// The recorded waveforms, with the branch-current probes of `circuit`.
    fn finish(self, circuit: &Circuit, layout: &MnaLayout) -> TransientResult {
        let mut sources = Vec::new();
        let mut branch_elements = Vec::new();
        for (idx, (_, _, e)) in circuit.elements().enumerate() {
            match (e, layout.branch_of[idx]) {
                (&Element::VoltageSource { pos, neg, .. }, Some(branch)) => {
                    sources.push(SourceInfo {
                        element: idx,
                        pos,
                        neg,
                        branch,
                    });
                    branch_elements.push((idx, branch));
                }
                (Element::Inductor { .. }, Some(branch)) => branch_elements.push((idx, branch)),
                _ => {}
            }
        }
        TransientResult {
            ground: vec![0.0; self.times.len()],
            times: self.times,
            signals: self.signals,
            node_rows: layout.n_nodes - 1,
            n_nodes: layout.n_nodes,
            sources,
            branch_elements,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::MosParams;
    use crate::session::Session;
    use crate::waveform::Waveform;

    /// RC step response: v(t) = V·(1 − e^(−t/τ)).
    #[test]
    fn rc_charge_matches_analytic() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(1.0));
        ckt.resistor("R1", vin, out, 1e3);
        ckt.capacitor("C1", out, Circuit::GND, 1e-6);
        let result = Session::new(&ckt)
            .transient(&Transient::new(1e-6, 5e-3).use_initial_conditions())
            .unwrap();
        let v = result.voltage(out);
        let tau = 1e-3;
        for &t in &[0.5e-3, 1e-3, 2e-3, 4e-3_f64] {
            let expect = 1.0 - (-t / tau).exp();
            let got = v.value_at(t);
            assert!(
                (got - expect).abs() < 2e-3,
                "t={t}: got {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn trapezoidal_is_more_accurate_than_backward_euler() {
        let build = || {
            let mut ckt = Circuit::new();
            let vin = ckt.node("in");
            let out = ckt.node("out");
            ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(1.0));
            ckt.resistor("R1", vin, out, 1e3);
            ckt.capacitor("C1", out, Circuit::GND, 1e-6);
            (ckt, out)
        };
        let tau = 1e-3;
        let expect = 1.0 - (-1.0f64).exp(); // at t = tau
        let (ckt, out) = build();
        // Deliberately coarse step to expose truncation error.
        let be = Session::new(&ckt)
            .transient(
                &Transient::new(50e-6, 1e-3)
                    .use_initial_conditions()
                    .with_method(IntegrationMethod::BackwardEuler),
            )
            .unwrap();
        let (ckt2, out2) = build();
        let tr = Session::new(&ckt2)
            .transient(
                &Transient::new(50e-6, 1e-3)
                    .use_initial_conditions()
                    .with_method(IntegrationMethod::Trapezoidal),
            )
            .unwrap();
        let err_be = (be.voltage(out).value_at(tau) - expect).abs();
        let err_tr = (tr.voltage(out2).value_at(tau) - expect).abs();
        assert!(
            err_tr < err_be,
            "trap err {err_tr} should beat BE err {err_be}"
        );
    }

    #[test]
    fn capacitor_initial_condition_is_honoured() {
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        ckt.resistor("R1", out, Circuit::GND, 1e3);
        ckt.capacitor_with_ic("C1", out, Circuit::GND, 1e-6, 2.0);
        let result = Session::new(&ckt)
            .transient(&Transient::new(1e-6, 1e-3).use_initial_conditions())
            .unwrap();
        let v = result.voltage(out);
        // Discharges from 2 V: v(τ) = 2/e.
        let got = v.value_at(1e-3);
        let expect = 2.0 * (-1.0f64).exp();
        assert!((got - expect).abs() < 5e-3, "got {got}, expected {expect}");
    }

    #[test]
    fn starts_from_dc_operating_point_by_default() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("V1", a, Circuit::GND, Waveform::dc(2.0));
        ckt.resistor("R1", a, b, 1e3);
        ckt.resistor("R2", b, Circuit::GND, 1e3);
        ckt.capacitor("C1", b, Circuit::GND, 1e-9);
        let result = Session::new(&ckt)
            .transient(&Transient::new(1e-9, 100e-9))
            .unwrap();
        let v = result.voltage(b);
        // Already at equilibrium: stays at 1 V throughout.
        assert!((v.value_at(0.0) - 1.0).abs() < 1e-6);
        assert!((v.last_value() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn pwm_average_on_rc_filter() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("V1", vin, Circuit::GND, Waveform::pwm(2.0, 1e6, 0.3));
        ckt.resistor("R1", vin, out, 10e3);
        ckt.capacitor("C1", out, Circuit::GND, 1e-9);
        let result = Session::new(&ckt)
            .transient(
                &Transient::new(2e-9, 100e-6)
                    .use_initial_conditions()
                    .record_every(5),
            )
            .unwrap();
        let avg = result.voltage(out).steady_state_average(1e-6, 10);
        assert!((avg - 0.6).abs() < 0.02, "avg = {avg}");
    }

    #[test]
    fn energy_balance_of_rc_charge() {
        // Charging a capacitor through a resistor takes C·V² from the
        // source: ½CV² stored, ½CV² dissipated.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let v1 = ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(2.0));
        ckt.resistor("R1", vin, out, 1e3);
        ckt.capacitor("C1", out, Circuit::GND, 1e-6);
        let result = Session::new(&ckt)
            .transient(&Transient::new(2e-6, 10e-3).use_initial_conditions())
            .unwrap();
        let p = result.source_power(v1).unwrap();
        let e = p.as_trace().integrate_between(0.0, 10e-3);
        let expect = 1e-6 * 2.0 * 2.0; // C·V²
        assert!(
            (e - expect).abs() / expect < 0.02,
            "energy {e} vs expected {expect}"
        );
    }

    #[test]
    fn cmos_inverter_inverts_a_slow_square_wave() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(2.5));
        ckt.vsource("VIN", vin, Circuit::GND, Waveform::pwm(2.5, 1e6, 0.5));
        ckt.mosfet("MP", out, vin, vdd, MosParams::pmos(865e-9, 1.2e-6));
        ckt.mosfet(
            "MN",
            out,
            vin,
            Circuit::GND,
            MosParams::nmos(320e-9, 1.2e-6),
        );
        ckt.capacitor("CL", out, Circuit::GND, 10e-15);
        let result = Session::new(&ckt)
            .transient(&Transient::new(2e-9, 3e-6).use_initial_conditions())
            .unwrap();
        let v_in = result.voltage(vin);
        let v_out = result.voltage(out);
        // Probe mid-high and mid-low phases of the final cycle.
        let t_hi = 2.25e-6; // input high
        let t_lo = 2.75e-6; // input low
        assert!(v_in.value_at(t_hi) > 2.0);
        assert!(v_out.value_at(t_hi) < 0.3, "out = {}", v_out.value_at(t_hi));
        assert!(v_in.value_at(t_lo) < 0.5);
        assert!(v_out.value_at(t_lo) > 2.2, "out = {}", v_out.value_at(t_lo));
    }

    #[test]
    fn record_decimation_reduces_samples() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        ckt.resistor("R1", a, Circuit::GND, 1e3);
        let fine = Session::new(&ckt)
            .transient(&Transient::new(1e-9, 1e-6))
            .unwrap();
        let coarse = Session::new(&ckt)
            .transient(&Transient::new(1e-9, 1e-6).record_every(10))
            .unwrap();
        assert!(coarse.samples() < fine.samples() / 5);
        // Final point always recorded.
        assert!((coarse.time().last().unwrap() - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn branch_current_probe_errors_on_non_source() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        let r = ckt.resistor("R1", a, Circuit::GND, 1e3);
        let result = Session::new(&ckt)
            .transient(&Transient::new(1e-9, 10e-9))
            .unwrap();
        assert!(result.branch_current(r).is_err());
        assert!(result.source_power(r).is_err());
    }

    #[test]
    fn voltage_between_is_differential() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("V1", a, Circuit::GND, Waveform::dc(3.0));
        ckt.resistor("R1", a, b, 1e3);
        ckt.resistor("R2", b, Circuit::GND, 2e3);
        let result = Session::new(&ckt)
            .transient(&Transient::new(1e-9, 10e-9))
            .unwrap();
        let vab = result.voltage_between(a, b);
        assert!((vab.as_trace().last_value() - 1.0).abs() < 1e-9);
    }

    /// Every invalid configuration is a typed error from the run, not a
    /// panic or an abort: including step counts beyond `usize::MAX`,
    /// which once overflowed the recorder's sample count.
    #[test]
    fn invalid_configurations_are_invalid_parameters() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("V1", a, Circuit::GND, Waveform::dc(1.0));
        ckt.resistor("R1", a, Circuit::GND, 1e3);
        ckt.capacitor("C1", a, Circuit::GND, 1e-9);
        for tran in [
            Transient::new(0.0, 1.0),
            Transient::new(-1e-9, 1.0),
            Transient::new(f64::NAN, 1.0),
            Transient::new(f64::INFINITY, 1.0),
            Transient::new(1e-9, 1e-10),
            Transient::new(1e-9, f64::NAN),
            Transient::new(1e-9, 1e-6).record_every(0),
            Transient::new(1e-9, 1e-6).with_max_iterations(0),
            Transient::new(1e-20, 1.0),
            Transient::new(1e-300, 1e10),
            Transient::new(1e-300, 1e10).adaptive(AdaptiveConfig::default()),
        ] {
            let got = Session::new(&ckt).transient(&tran);
            assert!(
                matches!(&got, Err(Error::InvalidParameter { element, .. }) if element == "transient"),
                "{tran:?}: {got:?}"
            );
            let rescued = Session::new(&ckt).transient_rescued(&tran, &RescuePolicy::default());
            assert!(
                matches!(rescued, Err(Error::InvalidParameter { .. })),
                "{tran:?}: {rescued:?}"
            );
        }
    }

    /// Adaptive stepping reproduces the RC charge with far fewer points
    /// than the fixed grid needs for the same accuracy.
    #[test]
    fn adaptive_rc_charge_is_accurate_and_cheap() {
        let build = || {
            let mut ckt = Circuit::new();
            let vin = ckt.node("in");
            let out = ckt.node("out");
            ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(1.0));
            ckt.resistor("R1", vin, out, 1e3);
            ckt.capacitor("C1", out, Circuit::GND, 1e-6);
            (ckt, out)
        };
        let tau = 1e-3;
        let (ckt, out) = build();
        let result = Session::new(&ckt)
            .transient(
                &Transient::new(tau / 2.0, 10.0 * tau) // max step τ/2
                    .use_initial_conditions()
                    .adaptive(AdaptiveConfig::default()),
            )
            .unwrap();
        let v = result.voltage(out);
        for &t in &[0.5 * tau, tau, 3.0 * tau] {
            let expect = 1.0 - f64::exp(-t / tau);
            assert!(
                (v.value_at(t) - expect).abs() < 5e-3,
                "t={t}: {} vs {expect}",
                v.value_at(t)
            );
        }
        // A fixed grid resolving the initial transient this well needs
        // hundreds of points; the controller should do it in far fewer.
        assert!(
            result.samples() < 120,
            "adaptive used {} samples",
            result.samples()
        );
        // Steps should grow once the exponential flattens.
        let t = result.time();
        let first_step = t[1] - t[0];
        let last_step = t[t.len() - 1] - t[t.len() - 2];
        assert!(
            last_step > 3.0 * first_step,
            "controller should stretch: {first_step:e} → {last_step:e}"
        );
    }

    /// Breakpoint handling: a pulse far narrower than the maximum step
    /// must not be skipped.
    #[test]
    fn adaptive_does_not_skip_narrow_pulses() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        // 1 µs-wide pulse at t = 50 µs inside a 200 µs window.
        ckt.vsource(
            "V1",
            vin,
            Circuit::GND,
            Waveform::Pulse(crate::waveform::Pulse {
                low: 0.0,
                high: 1.0,
                delay: 50e-6,
                rise: 1e-8,
                fall: 1e-8,
                width: 1e-6,
                period: 1.0, // effectively one-shot in this window
            }),
        );
        ckt.resistor("R1", vin, out, 1e3);
        ckt.capacitor("C1", out, Circuit::GND, 1e-10); // τ = 100 ns
        let result = Session::new(&ckt)
            .transient(
                &Transient::new(20e-6, 200e-6) // max step ≫ pulse width
                    .use_initial_conditions()
                    .adaptive(AdaptiveConfig::default()),
            )
            .unwrap();
        let v = result.voltage(out);
        // The capacitor must have charged during the pulse.
        assert!(v.max() > 0.9, "pulse was skipped: max = {}", v.max());
        // And discharged afterwards.
        assert!(v.last_value() < 0.05);
    }

    /// Adaptive PWM averaging matches the fixed-step reference.
    #[test]
    fn adaptive_pwm_average_matches_fixed() {
        let build = || {
            let mut ckt = Circuit::new();
            let vin = ckt.node("in");
            let out = ckt.node("out");
            ckt.vsource("V1", vin, Circuit::GND, Waveform::pwm(2.0, 1e6, 0.3));
            ckt.resistor("R1", vin, out, 10e3);
            ckt.capacitor("C1", out, Circuit::GND, 1e-9);
            (ckt, out)
        };
        let (ckt, out) = build();
        let adaptive = Session::new(&ckt)
            .transient(
                &Transient::new(0.5e-6, 100e-6)
                    .use_initial_conditions()
                    .adaptive(AdaptiveConfig::default()),
            )
            .unwrap();
        let avg = adaptive.voltage(out).steady_state_average(1e-6, 10);
        assert!((avg - 0.6).abs() < 0.03, "avg = {avg}");
    }

    /// RL step response: i(t) = (V/R)·(1 − e^(−t·R/L)).
    #[test]
    fn rl_current_rise_matches_analytic() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(1.0));
        ckt.resistor("R1", vin, mid, 100.0);
        let l1 = ckt.inductor("L1", mid, Circuit::GND, 1e-3); // τ = 10 µs
        let result = Session::new(&ckt)
            .transient(&Transient::new(20e-9, 50e-6).use_initial_conditions())
            .unwrap();
        let i = result.branch_current(l1).unwrap();
        let tau = 1e-3 / 100.0;
        for &t in &[0.5 * tau, tau, 3.0 * tau] {
            let expect = (1.0 / 100.0) * (1.0 - f64::exp(-t / tau));
            let got = i.value_at(t);
            assert!(
                (got - expect).abs() < 2e-4,
                "t={t}: i={got}, expected {expect}"
            );
        }
        // Fully risen at 5τ.
        assert!((i.last_value() - 0.01).abs() < 1e-4);
    }

    /// Inductor is a DC short: the operating point puts the full supply
    /// across the resistor.
    #[test]
    fn inductor_is_short_in_dc_derived_initial_condition() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(2.0));
        ckt.resistor("R1", vin, mid, 1e3);
        let l1 = ckt.inductor("L1", mid, Circuit::GND, 1e-3);
        // No UIC: start from the DC OP, where i(L) = 2 mA already.
        let result = Session::new(&ckt)
            .transient(&Transient::new(1e-7, 1e-5))
            .unwrap();
        let i = result.branch_current(l1).unwrap();
        assert!((i.value_at(0.0) - 2e-3).abs() < 1e-8);
        assert!((i.last_value() - 2e-3).abs() < 1e-8, "steady state holds");
    }

    /// Series RLC ringing: underdamped response oscillates near the
    /// natural frequency and decays at R/(2L).
    #[test]
    fn rlc_underdamped_oscillation() {
        let r = 10.0;
        let l = 1e-6;
        let c = 1e-9;
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        let out = ckt.node("out");
        ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(1.0));
        ckt.resistor("R1", vin, mid, r);
        ckt.inductor("L1", mid, out, l);
        ckt.capacitor("C1", out, Circuit::GND, c);
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (l * c).sqrt()); // ≈ 5 MHz
        let period = 1.0 / f0;
        let result = Session::new(&ckt)
            .transient(&Transient::new(period / 400.0, 6.0 * period).use_initial_conditions())
            .unwrap();
        let v = result.voltage(out);
        // Underdamped: overshoot beyond the final value.
        let peak = v.max();
        assert!(peak > 1.3, "expected ringing overshoot, peak = {peak}");
        // First peak lands near half the natural period.
        let t_half = period / 2.0;
        let v_half = v.value_at(t_half);
        assert!(v_half > 1.3, "v({t_half}) = {v_half}");
        // Decays toward 1 V.
        assert!((v.last_value() - 1.0).abs() < 0.25);
    }
}
