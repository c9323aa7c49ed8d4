//! Measurement harnesses for the paper's experiments.
//!
//! [`InverterTestbench`] and [`AdderTestbench`] build a complete circuit
//! (supply, PWM stimulus, device under test), pick transient parameters
//! from the circuit's own time constants, run [`mssim`]'s transient
//! analysis and extract cycle-aligned steady-state measurements — exactly
//! the procedure behind the paper's Figs. 4–8 and Table II.

use mssim::prelude::*;
use mssim::units::{Farads, Watts};

use crate::adder::{AdderSpec, WeightedAdder};
use crate::inverter::Inverter;
use crate::tech::Technology;

/// Simulation effort: how finely to step and how long to settle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimQuality {
    /// Time steps per PWM period.
    pub steps_per_period: usize,
    /// Settle duration in output time constants.
    pub settle_time_constants: f64,
    /// Lower bound on settle duration in periods.
    pub min_settle_periods: usize,
    /// Measurement window length in whole periods.
    pub measure_periods: usize,
    /// Upper bound on total simulated periods (guards runaway runtimes at
    /// extreme frequency/τ ratios).
    pub max_total_periods: usize,
}

impl SimQuality {
    /// Quick settings for unit tests and training loops: ~1 % accuracy.
    pub fn fast() -> Self {
        SimQuality {
            steps_per_period: 100,
            settle_time_constants: 5.0,
            min_settle_periods: 4,
            measure_periods: 2,
            max_total_periods: 4000,
        }
    }

    /// Publication settings matching the paper's reported precision.
    pub fn paper() -> Self {
        SimQuality {
            steps_per_period: 200,
            settle_time_constants: 8.0,
            min_settle_periods: 8,
            measure_periods: 4,
            max_total_periods: 8000,
        }
    }

    /// Chooses `(dt, t_stop, measure_window_periods)` for a PWM period and
    /// an output time constant.
    fn plan(&self, period: f64, tau: f64) -> (f64, f64, usize) {
        let settle = ((self.settle_time_constants * tau / period).ceil() as usize)
            .max(self.min_settle_periods);
        let total = (settle + self.measure_periods).min(self.max_total_periods);
        let dt = period / self.steps_per_period as f64;
        (dt, total as f64 * period, self.measure_periods)
    }
}

impl Default for SimQuality {
    fn default() -> Self {
        Self::fast()
    }
}

/// Operating point for one inverter measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasureSpec {
    /// Input duty cycle, `0..=1`.
    pub duty: f64,
    /// Input frequency; `None` uses the technology default (500 MHz).
    pub frequency: Option<Hertz>,
    /// Supply voltage; `None` uses the technology default (2.5 V).
    pub vdd: Option<Volts>,
    /// Input swing; `None` follows the supply voltage.
    pub amplitude: Option<Volts>,
}

impl MeasureSpec {
    /// Nominal conditions at the given duty cycle.
    ///
    /// # Panics
    ///
    /// Panics if `duty` is outside `0..=1`.
    pub fn duty(duty: f64) -> Self {
        assert!((0.0..=1.0).contains(&duty), "duty must be in 0..=1");
        MeasureSpec {
            duty,
            frequency: None,
            vdd: None,
            amplitude: None,
        }
    }

    /// Overrides the input frequency.
    pub fn with_frequency(mut self, frequency: Hertz) -> Self {
        self.frequency = Some(frequency);
        self
    }

    /// Overrides the supply voltage.
    pub fn with_vdd(mut self, vdd: Volts) -> Self {
        self.vdd = Some(vdd);
        self
    }

    /// Overrides the input swing independently of the supply.
    pub fn with_amplitude(mut self, amplitude: Volts) -> Self {
        self.amplitude = Some(amplitude);
        self
    }
}

/// Steady-state measurement of the transcoding inverter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InverterMeasurement {
    /// Cycle-averaged output voltage.
    pub vout: Volts,
    /// Peak-to-peak output ripple over the measurement window.
    pub ripple: Volts,
    /// Average power drawn from the supply.
    pub supply_power: Watts,
    /// The supply voltage the measurement ran at.
    pub vdd: Volts,
}

impl InverterMeasurement {
    /// `Vout / Vdd` — the supply-independent quantity of the paper's
    /// Fig. 7.
    pub fn relative_output(&self) -> f64 {
        self.vout.value() / self.vdd.value()
    }
}

/// Transistor-level testbench for the Fig. 2 inverter.
#[derive(Debug, Clone)]
pub struct InverterTestbench {
    tech: Technology,
    rout: Option<Ohms>,
    cout: Farads,
}

impl InverterTestbench {
    /// Testbench with the technology's default output resistor (100 kΩ).
    pub fn new(tech: &Technology) -> Self {
        Self::with_rout(tech, Some(tech.rout))
    }

    /// The "no load (resistor)" variant of Fig. 4.
    pub fn without_load(tech: &Technology) -> Self {
        Self::with_rout(tech, None)
    }

    /// Testbench with an explicit output resistor choice.
    pub fn with_rout(tech: &Technology, rout: Option<Ohms>) -> Self {
        InverterTestbench {
            tech: tech.clone(),
            rout,
            cout: tech.cout_inverter,
        }
    }

    /// Overrides the output capacitor (Cout ablation).
    ///
    /// # Panics
    ///
    /// Panics if the capacitance is not strictly positive.
    pub fn with_cout(mut self, cout: Farads) -> Self {
        assert!(cout.value() > 0.0, "cout must be positive");
        self.cout = cout;
        self
    }

    /// Runs one transient measurement.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors ([`Error::NonConvergence`] etc.).
    pub fn measure(
        &self,
        spec: &MeasureSpec,
        quality: &SimQuality,
    ) -> Result<InverterMeasurement, Error> {
        let vdd = spec.vdd.unwrap_or(self.tech.vdd);
        let amplitude = spec.amplitude.unwrap_or(vdd);
        let frequency = spec.frequency.unwrap_or(self.tech.frequency);
        let period = frequency.period().value();

        let mut ckt = Circuit::new();
        let vdd_node = ckt.node("vdd");
        let in_node = ckt.node("in");
        let vdd_src = ckt.vsource("VDD", vdd_node, Circuit::GND, Waveform::dc(vdd.value()));
        ckt.vsource(
            "VIN",
            in_node,
            Circuit::GND,
            Waveform::pwm_with_edges(
                amplitude.value(),
                frequency.value(),
                spec.duty,
                self.tech.edge_fraction(frequency),
            ),
        );
        let inv = Inverter::build(
            &mut ckt, &self.tech, "dut", in_node, vdd_node, self.rout, self.cout,
        );

        let tau = self.output_tau(vdd);
        let (dt, t_stop, win) = quality.plan(period, tau);
        let result =
            Session::new(&ckt).transient(&Transient::new(dt, t_stop).use_initial_conditions())?;

        let vout_trace = result.voltage(inv.output);
        let vout = vout_trace.steady_state_average(period, win);
        let (_, t_end) = vout_trace.span();
        let t_win = t_end - win as f64 * period;
        let ripple = vout_trace.ripple_between(t_win, t_end);
        let power = result
            .source_power(vdd_src)?
            .as_trace()
            .average_between(t_win, t_end);

        Ok(InverterMeasurement {
            vout: Volts(vout),
            ripple: Volts(ripple),
            supply_power: Watts(power),
            vdd,
        })
    }

    /// Small-signal frequency response of the transcoding path: the
    /// inverter is biased with its input at mid-rail (both devices
    /// conducting) and a unit AC stimulus rides the gate; the returned
    /// pairs are `(frequency, |V(out)| / |V(out at the first frequency)|)`
    /// — the normalised magnitude of the output filter, whose dominant
    /// pole is what gives the design its ripple rejection.
    ///
    /// # Errors
    ///
    /// Propagates DC-operating-point and AC-solver errors.
    ///
    /// # Panics
    ///
    /// Panics if `frequencies` is empty.
    pub fn frequency_response(&self, frequencies: &[f64]) -> Result<Vec<(f64, f64)>, Error> {
        self.frequency_response_at(self.tech.vdd * 0.5, frequencies)
    }

    /// [`InverterTestbench::frequency_response`] with an explicit gate
    /// bias. Mid-rail biases both devices in saturation (high output
    /// resistance); a rail bias puts the conducting device in triode,
    /// where its on-resistance sets the unloaded pole.
    ///
    /// # Errors
    ///
    /// Propagates DC-operating-point and AC-solver errors.
    ///
    /// # Panics
    ///
    /// Panics if `frequencies` is empty.
    pub fn frequency_response_at(
        &self,
        bias: Volts,
        frequencies: &[f64],
    ) -> Result<Vec<(f64, f64)>, Error> {
        assert!(!frequencies.is_empty(), "need at least one frequency");
        let vdd = self.tech.vdd;
        let mut ckt = Circuit::new();
        let vdd_node = ckt.node("vdd");
        let in_node = ckt.node("in");
        ckt.vsource("VDD", vdd_node, Circuit::GND, Waveform::dc(vdd.value()));
        let vin = ckt.vsource("VIN", in_node, Circuit::GND, Waveform::dc(bias.value()));
        let inv = Inverter::build(
            &mut ckt, &self.tech, "dut", in_node, vdd_node, self.rout, self.cout,
        );
        let ac = mssim::Session::new(&ckt).ac(vin, frequencies)?;
        let mags = ac.magnitude(inv.output);
        let reference = mags[0].max(1e-30);
        Ok(frequencies
            .iter()
            .zip(&mags)
            .map(|(&f, &m)| (f, m / reference))
            .collect())
    }

    /// First-order output time constant at the given supply, with the
    /// on-resistance clamped so a below-threshold supply still yields a
    /// finite simulation plan.
    fn output_tau(&self, vdd: Volts) -> f64 {
        let drive = vdd.value();
        let ron_n = self.tech.nmos.r_on(drive).min(10e6);
        let ron_p = self.tech.pmos.r_on(drive).min(10e6);
        let ron = 0.5 * (ron_n + ron_p);
        (self.rout.map_or(0.0, Ohms::value) + ron) * self.cout.value()
    }
}

/// Steady-state measurement of the weighted adder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdderMeasurement {
    /// Cycle-averaged output voltage.
    pub vout: Volts,
    /// Peak-to-peak output ripple over the measurement window.
    pub ripple: Volts,
    /// Average power drawn from the supply (the paper's Fig. 8 quantity).
    pub supply_power: Watts,
    /// The supply voltage the measurement ran at.
    pub vdd: Volts,
}

/// Steady-state adder measurement taken under the transient rescue
/// ladder (see [`AdderBatchBench::measure_rescued`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RescuedAdderMeasurement {
    /// The measurement. For a partial run this averages the trailing
    /// window of the truncated waveform instead of the planned window.
    pub measurement: AdderMeasurement,
    /// Whether the transient stopped before `t_stop` (rescue ladder
    /// exhausted) — the measurement is then degraded, not exact.
    pub partial: bool,
    /// Total rescue-ladder rungs attempted (0 for a clean run).
    pub rescue_attempts: usize,
}

/// Transistor-level testbench for the Fig. 3 weighted adder.
#[derive(Debug, Clone)]
pub struct AdderTestbench {
    tech: Technology,
    spec: AdderSpec,
}

impl AdderTestbench {
    /// Testbench for an arbitrary adder size.
    pub fn new(tech: &Technology, spec: AdderSpec) -> Self {
        AdderTestbench {
            tech: tech.clone(),
            spec,
        }
    }

    /// The paper's 3×3 case study.
    pub fn paper(tech: &Technology) -> Self {
        Self::new(tech, AdderSpec::paper_3x3())
    }

    /// The adder dimensions under test.
    pub fn spec(&self) -> AdderSpec {
        self.spec
    }

    /// Transistor count of the device under test.
    pub fn transistor_count(&self) -> usize {
        self.spec.transistor_count()
    }

    /// Runs one transient measurement at nominal supply and frequency.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    ///
    /// # Panics
    ///
    /// Panics if `duties`/`weights` do not match the adder dimensions or
    /// are out of range.
    pub fn measure(
        &self,
        duties: &[f64],
        weights: &[u32],
        quality: &SimQuality,
    ) -> Result<AdderMeasurement, Error> {
        self.measure_at(duties, weights, self.tech.frequency, self.tech.vdd, quality)
    }

    /// Runs one transient measurement at an explicit frequency and supply:
    /// [`batch_runner`](Self::batch_runner) followed by one
    /// [`AdderBatchBench::measure`].
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    ///
    /// # Panics
    ///
    /// Panics if `duties`/`weights` do not match the adder dimensions or
    /// are out of range.
    pub fn measure_at(
        &self,
        duties: &[f64],
        weights: &[u32],
        frequency: Hertz,
        vdd: Volts,
        quality: &SimQuality,
    ) -> Result<AdderMeasurement, Error> {
        self.batch_runner(weights, frequency, vdd, quality)
            .measure(duties)
    }

    /// First-order time constant of the shared output node: the parallel
    /// combination of every cell's series resistance into `Cout`.
    fn output_tau(&self, vdd: Volts) -> f64 {
        let drive = vdd.value();
        let ron =
            0.5 * (self.tech.nmos.r_on(drive).min(10e6) + self.tech.pmos.r_on(drive).min(10e6));
        let r_cell = self.tech.rout.value() + ron;
        // Conductance units: each input contributes 1+2+…+2^(n−1).
        let units = self.spec.inputs as f64 * (self.spec.max_weight() as f64);
        (r_cell / units) * self.tech.cout_adder.value()
    }

    /// The settle plan `(dt, t_stop, measure_periods)` at `frequency` and
    /// supply `vdd`: the output time constant is taken at that supply, so
    /// a reduced rail (slower cells) settles for longer.
    pub(crate) fn plan(
        &self,
        frequency: Hertz,
        vdd: Volts,
        quality: &SimQuality,
    ) -> (f64, f64, usize) {
        quality.plan(frequency.period().value(), self.output_tau(vdd))
    }

    /// Prepares a reusable runner for repeated measurements that differ
    /// only in duty cycles: the circuit, transient plan and waveform
    /// parameters are built once, and each [`AdderBatchBench::measure`]
    /// swaps input waveforms on a clone (waveform edits do not change the
    /// matrix structure, so the solver's symbolic work is identical).
    ///
    /// # Panics
    ///
    /// Panics if `weights` do not match the adder dimensions or are out
    /// of range.
    pub fn batch_runner(
        &self,
        weights: &[u32],
        frequency: Hertz,
        vdd: Volts,
        quality: &SimQuality,
    ) -> AdderBatchBench {
        let mut ckt = Circuit::new();
        let vdd_node = ckt.node("vdd");
        let vdd_src = ckt.vsource("VDD", vdd_node, Circuit::GND, Waveform::dc(vdd.value()));
        let adder = WeightedAdder::build(&mut ckt, &self.tech, "dut", vdd_node, weights, self.spec);
        // Placeholder stimulus; every measurement replaces each waveform.
        let vin_srcs: Vec<ElementId> = (0..self.spec.inputs)
            .map(|i| {
                ckt.vsource(
                    &format!("VIN{i}"),
                    adder.inputs[i],
                    Circuit::GND,
                    Waveform::pwm_with_edges(
                        vdd.value(),
                        frequency.value(),
                        0.5,
                        self.tech.edge_fraction(frequency),
                    ),
                )
            })
            .collect();

        let (dt, t_stop, win) = self.plan(frequency, vdd, quality);
        AdderBatchBench {
            ckt,
            vin_srcs,
            vdd_src,
            output: adder.output,
            edge_fraction: self.tech.edge_fraction(frequency),
            frequency,
            vdd,
            period: frequency.period().value(),
            dt,
            t_stop,
            win,
        }
    }
}

/// Reusable measurement runner for one adder configuration (weights,
/// frequency, supply, quality) across many duty-cycle vectors.
///
/// Created by [`AdderTestbench::batch_runner`]. The runner is `Sync`, so
/// a batch of duty vectors can be fanned over `mssim::sweep::sweep`; each
/// measurement clones the prepared circuit and swaps input waveforms,
/// skipping netlist construction and transient planning.
///
/// Every measurement runs on the limited MOS evaluator at
/// [`LimitOpts::equilibrium`]: a settled cycle average is an equilibrium
/// quantity, and these bands hold it within 0.1 mV of exact mode across
/// 0.6–3.3 V and 1–500 MHz (the transient defaults drift by millivolts
/// over a long settle) while skipping most device evaluations and
/// factorizations.
#[derive(Debug, Clone)]
pub struct AdderBatchBench {
    ckt: Circuit,
    vin_srcs: Vec<ElementId>,
    vdd_src: ElementId,
    output: NodeId,
    edge_fraction: f64,
    frequency: Hertz,
    vdd: Volts,
    period: f64,
    dt: f64,
    t_stop: f64,
    win: usize,
}

impl AdderBatchBench {
    /// The prepared circuit with `duties` applied to the inputs: the
    /// netlist every measurement of this duty vector simulates.
    ///
    /// # Errors
    ///
    /// Propagates waveform-edit errors.
    ///
    /// # Panics
    ///
    /// Panics if `duties` does not match the adder's input count.
    pub fn circuit(&self, duties: &[f64]) -> Result<Circuit, Error> {
        assert_eq!(duties.len(), self.vin_srcs.len(), "one duty per input");
        let mut ckt = self.ckt.clone();
        for (&src, &d) in self.vin_srcs.iter().zip(duties) {
            ckt.set_waveform(
                src,
                Waveform::pwm_with_edges(
                    self.vdd.value(),
                    self.frequency.value(),
                    d,
                    self.edge_fraction,
                ),
            )?;
        }
        Ok(ckt)
    }

    /// The planned settling transient (start from zero state, run the
    /// settle plus the measurement window).
    pub(crate) fn transient(&self) -> Transient {
        Transient::new(self.dt, self.t_stop).use_initial_conditions()
    }

    /// Runs one measurement for the given duty-cycle vector.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    ///
    /// # Panics
    ///
    /// Panics if `duties` does not match the adder's input count.
    pub fn measure(&self, duties: &[f64]) -> Result<AdderMeasurement, Error> {
        self.run(duties, None).map(|m| m.measurement)
    }

    /// [`AdderBatchBench::measure`] run under the transient rescue ladder:
    /// recoverable non-convergence is retried per step, and a run whose
    /// ladder runs dry still yields a measurement over the trailing window
    /// of the truncated waveform, flagged `partial` — serving layers can
    /// hand it out as a degraded answer instead of failing the query.
    ///
    /// A run that needs no rescue is bitwise identical to
    /// [`AdderBatchBench::measure`].
    ///
    /// # Errors
    ///
    /// Propagates structural errors (lint rejection, singular matrix,
    /// initial-DC non-convergence), and the terminal non-convergence when
    /// a partial waveform is too short to measure at all.
    ///
    /// # Panics
    ///
    /// Panics if `duties` does not match the adder's input count.
    pub fn measure_rescued(
        &self,
        duties: &[f64],
        policy: &RescuePolicy,
    ) -> Result<RescuedAdderMeasurement, Error> {
        self.run(duties, Some(policy))
    }

    /// The body of both measurements: prepare the circuit, run the
    /// settling transient on the limited evaluator (under the rescue
    /// ladder when `policy` is given) and average the trailing window.
    fn run(
        &self,
        duties: &[f64],
        policy: Option<&RescuePolicy>,
    ) -> Result<RescuedAdderMeasurement, Error> {
        let ckt = self.circuit(duties)?;
        let mut session = Session::new(&ckt).with_limit_opts(LimitOpts::equilibrium());
        let tran = self.transient();
        let outcome = match policy {
            Some(policy) => session.transient_rescued(&tran, policy)?,
            None => TransientOutcome::Complete {
                result: session.transient(&tran)?,
                rescues: RescueReport::default(),
            },
        };
        let partial = outcome.is_partial();
        let rescue_attempts = outcome.rescues().total_attempts();
        let (result, terminal) = match outcome {
            TransientOutcome::Complete { result, .. } => (result, None),
            TransientOutcome::Partial { result, error, .. } => (result, Some(error)),
        };
        match self.window(&result)? {
            Some(measurement) => Ok(RescuedAdderMeasurement {
                measurement,
                partial,
                rescue_attempts,
            }),
            None => Err(terminal.expect("only a partial run records too little to measure")),
        }
    }

    /// Averages the trailing measurement window of `result`. The window
    /// is clamped to the recorded span, which only bites on a partial
    /// run; `None` when too little was recorded to measure at all.
    fn window(&self, result: &TransientResult) -> Result<Option<AdderMeasurement>, Error> {
        let vout_trace = result.voltage(self.output);
        let (t_start, t_end) = vout_trace.span();
        let t_win = (t_end - self.win as f64 * self.period).max(t_start);
        if vout_trace.len() < 2 || t_win >= t_end {
            return Ok(None);
        }
        let power = result
            .source_power(self.vdd_src)?
            .as_trace()
            .average_between(t_win, t_end);
        Ok(Some(AdderMeasurement {
            vout: Volts(vout_trace.average_between(t_win, t_end)),
            ripple: Volts(vout_trace.ripple_between(t_win, t_end)),
            supply_power: Watts(power),
            vdd: self.vdd,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic;

    /// Lower-frequency, small-Cout technology keeps debug-mode tests fast;
    /// the paper configuration runs in the bench harness.
    fn quick_tech() -> Technology {
        let mut t = Technology::umc65_like();
        t.cout_inverter = Farads(100e-15);
        t.cout_adder = Farads(500e-15);
        t.frequency = Hertz(50e6);
        t
    }

    #[test]
    fn inverter_transfer_is_inverse_in_duty() {
        let tb = InverterTestbench::new(&quick_tech());
        let q = SimQuality::fast();
        let m25 = tb.measure(&MeasureSpec::duty(0.25), &q).unwrap();
        let m75 = tb.measure(&MeasureSpec::duty(0.75), &q).unwrap();
        assert!(m25.vout.value() > m75.vout.value());
        assert!((m25.vout.value() - 2.5 * 0.75).abs() < 0.15, "{m25:?}");
        assert!((m75.vout.value() - 2.5 * 0.25).abs() < 0.15, "{m75:?}");
    }

    #[test]
    fn inverter_measurement_reports_positive_power_and_ripple() {
        let tb = InverterTestbench::new(&quick_tech());
        let m = tb
            .measure(&MeasureSpec::duty(0.5), &SimQuality::fast())
            .unwrap();
        assert!(m.supply_power.value() > 0.0, "power {:?}", m.supply_power);
        assert!(m.ripple.value() > 0.0);
        assert!((m.relative_output() - 0.5).abs() < 0.08);
    }

    #[test]
    fn no_load_variant_is_more_nonlinear_than_100k() {
        // Deviation from the ideal straight line at mid-duty should be
        // visibly larger without the linearising resistor — the essence of
        // the paper's Fig. 4.
        let tech = quick_tech();
        let q = SimQuality::fast();
        let err_of = |tb: &InverterTestbench| {
            let m = tb.measure(&MeasureSpec::duty(0.5), &q).unwrap();
            (m.vout.value() - analytic::inverter_vout(2.5, 0.5)).abs()
        };
        let err_noload = err_of(&InverterTestbench::without_load(&tech));
        let err_100k = err_of(&InverterTestbench::new(&tech));
        assert!(
            err_noload > err_100k,
            "no-load err {err_noload:.4} should exceed 100k err {err_100k:.4}"
        );
    }

    #[test]
    fn adder_measurement_tracks_eq2() {
        let tech = quick_tech();
        let tb = AdderTestbench::paper(&tech);
        assert_eq!(tb.transistor_count(), 54);
        let duties = [0.7, 0.8, 0.9];
        let weights = [7, 7, 7];
        let m = tb.measure(&duties, &weights, &SimQuality::fast()).unwrap();
        let expect = analytic::adder_vout(2.5, &duties, &weights, 3);
        assert!(
            (m.vout.value() - expect).abs() < 0.15,
            "vout {:.3} vs Eq.2 {expect:.3}",
            m.vout.value()
        );
    }

    #[test]
    fn batch_runner_matches_measure_at_bitwise() {
        let tech = quick_tech();
        let tb = AdderTestbench::paper(&tech);
        let weights = [7, 5, 3];
        let quality = SimQuality::fast();
        let runner = tb.batch_runner(&weights, tech.frequency, tech.vdd, &quality);
        for duties in [[0.7, 0.8, 0.9], [0.0, 0.5, 1.0], [0.25, 0.25, 0.25]] {
            let reference = tb
                .measure_at(&duties, &weights, tech.frequency, tech.vdd, &quality)
                .unwrap();
            let batched = runner.measure(&duties).unwrap();
            assert_eq!(batched.vout, reference.vout, "{duties:?}");
            assert_eq!(batched.ripple, reference.ripple, "{duties:?}");
            assert_eq!(batched.supply_power, reference.supply_power, "{duties:?}");
        }
    }

    #[test]
    fn measure_rescued_matches_measure_bitwise_when_clean() {
        let tech = quick_tech();
        let tb = AdderTestbench::paper(&tech);
        let weights = [7, 5, 3];
        let quality = SimQuality::fast();
        let runner = tb.batch_runner(&weights, tech.frequency, tech.vdd, &quality);
        let duties = [0.3, 0.6, 0.9];
        let clean = runner.measure(&duties).unwrap();
        let rescued = runner
            .measure_rescued(&duties, &RescuePolicy::default())
            .unwrap();
        assert!(!rescued.partial);
        assert_eq!(rescued.rescue_attempts, 0);
        assert_eq!(rescued.measurement, clean);
    }

    #[test]
    fn limited_measurement_matches_exact_mode_across_the_envelope() {
        // The testbench measures on the limited evaluator; the same
        // prepared circuit under exact device evaluation, averaged over
        // the same window, must agree within 0.1 mV from near-threshold
        // to over-nominal supply, at a long and a short period, with the
        // rail-pinned all-0 and all-1 duty vectors included.
        let tech = Technology::umc65_like();
        let tb = AdderTestbench::paper(&tech);
        let quality = SimQuality::fast();
        let cases: [([f64; 3], [u32; 3]); 4] = [
            ([0.0; 3], [7, 7, 7]),
            ([1.0; 3], [7, 7, 7]),
            ([0.7, 0.8, 0.9], [7, 7, 7]),
            ([0.3, 0.6, 0.9], [7, 5, 3]),
        ];
        for vdd in [0.6, 1.0, 1.8, 2.5, 3.3] {
            for freq in [1e6, 50e6] {
                for (duties, weights) in &cases {
                    let runner = tb.batch_runner(weights, Hertz(freq), Volts(vdd), &quality);
                    let limited = runner.measure(duties).unwrap();
                    let ckt = runner.circuit(duties).unwrap();
                    let result = Session::new(&ckt).transient(&runner.transient()).unwrap();
                    let exact = runner.window(&result).unwrap().expect("complete run");
                    let dv = (limited.vout.value() - exact.vout.value()).abs();
                    assert!(
                        dv <= 1e-4,
                        "{vdd} V, {freq:e} Hz, {duties:?}×{weights:?}: limited {} vs exact {} ({dv:e} V)",
                        limited.vout.value(),
                        exact.vout.value()
                    );
                }
            }
        }
    }

    #[test]
    fn quality_plan_respects_caps() {
        let q = SimQuality::fast();
        // Extreme τ/T ratio must hit the period cap.
        let (_, t_stop, _) = q.plan(1e-9, 1.0);
        assert!(t_stop <= q.max_total_periods as f64 * 1e-9 + 1e-15);
        // Relaxed ratio obeys the minimum settle.
        let (dt, t_stop2, _) = q.plan(1e-6, 1e-9);
        assert!((dt - 1e-6 / 100.0).abs() < 1e-18);
        let periods = (t_stop2 / 1e-6).round() as usize;
        assert_eq!(periods, q.min_settle_periods + q.measure_periods);
    }

    #[test]
    #[should_panic(expected = "duty must be in 0..=1")]
    fn measure_spec_rejects_bad_duty() {
        let _ = MeasureSpec::duty(-0.1);
    }

    #[test]
    fn frequency_response_is_a_low_pass() {
        let tech = Technology::umc65_like();
        let tb = InverterTestbench::new(&tech);
        let freqs = mssim::sweep::logspace(1e3, 1e9, 13);
        let resp = tb.frequency_response(&freqs).unwrap();
        // Normalised to the first point.
        assert!((resp[0].1 - 1.0).abs() < 1e-12);
        // Monotone roll-off.
        for w in resp.windows(2) {
            assert!(w[1].1 <= w[0].1 * 1.001, "{resp:?}");
        }
        // Strong attenuation at 1 GHz — this is the ripple filter that
        // makes Fig. 5 flat.
        assert!(resp.last().unwrap().1 < 1e-2, "{resp:?}");
        // Beyond the pole the slope approaches −20 dB/decade.
        let hi = resp[resp.len() - 1].1;
        let lo = resp[resp.len() - 2].1; // one log-step below
        let step = freqs[12] / freqs[11];
        assert!(
            (lo / hi - step).abs() / step < 0.2,
            "slope ratio {} vs decade step {step}",
            lo / hi
        );
    }

    #[test]
    fn no_load_inverter_has_wider_bandwidth() {
        // Without the series resistor the output pole sits much higher —
        // the quantitative version of "Rout adds ripple filtering". Bias
        // the gate at the rail so the conducting NMOS is in triode and
        // its ~9 kΩ on-resistance sets the unloaded pole (at mid-rail
        // both devices would be saturated and high-impedance instead).
        let tech = Technology::umc65_like();
        let freqs = mssim::sweep::logspace(1e4, 1e10, 31);
        let bias = tech.vdd;
        let half_bandwidth = |tb: &InverterTestbench| {
            let resp = tb.frequency_response_at(bias, &freqs).unwrap();
            resp.iter()
                .find(|(_, m)| *m < 0.5)
                .map(|(f, _)| *f)
                .unwrap_or(f64::INFINITY)
        };
        let bw_loaded = half_bandwidth(&InverterTestbench::new(&tech));
        let bw_unloaded = half_bandwidth(&InverterTestbench::without_load(&tech));
        assert!(
            bw_unloaded > 5.0 * bw_loaded,
            "unloaded {bw_unloaded:.3e} vs loaded {bw_loaded:.3e}"
        );
    }
}
