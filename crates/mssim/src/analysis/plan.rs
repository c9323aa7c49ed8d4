//! Compiled stamp plans: the transient/DC hot path.
//!
//! [`mna::assemble`] walks the element enum list and re-resolves every
//! `Option<row>` on **every Newton iteration of every time point**. For the
//! paper's sweeps that is thousands of transients, each re-doing identical
//! work. This module compiles a circuit once into a flat stamp program with
//! pre-resolved matrix indices, partitioned by how often each contribution
//! can change:
//!
//! * **base** — resistor conductances, source/inductor incidence entries,
//!   gmin shunts and capacitor/inductor companion `geq` terms. Rebuilt only
//!   when the *base key* (gshunt, gmin, companion `geq` values) changes,
//!   i.e. once per (`dt`, method) combination or gmin-stepping stage.
//! * **per-solve rhs** — independent source values and companion history
//!   currents `ieq`; constant across the Newton iterations of one solve.
//! * **per-iteration** — MOSFET/diode linearisations and switch states,
//!   plus any base/rhs contribution *demoted* because a dynamic device
//!   writes the same matrix entry or rhs row earlier in element order
//!   (floating-point addition is commutative but not associative, so the
//!   per-entry accumulation order of the reference assembler must be
//!   preserved exactly to keep results bitwise identical).
//!
//! On top of the plan, [`PlanSolver`] separates *evaluating* the dynamic
//! contributions from *writing* them. Each iteration only evaluates the
//! devices into small value lists; the assembled system's identity is the
//! pair (base generation counter, dynamic value bits), so cache checks
//! compare a handful of floats instead of O(n²) matrix bytes. Three reuse
//! tiers follow, cheapest first:
//!
//! * **Newton bypass** — if no solution entry a device reads moved since
//!   the last evaluation of this solve, even the evaluation is skipped and
//!   the previous solution is reused (this makes the Newton confirmation
//!   iteration and linear circuits near-free).
//! * **solution cache** — same identity as the last solved system ⇒ the
//!   previous solution verbatim.
//! * **factorization cache** — same matrix identity as the last factored
//!   system ⇒ the matrix is never even written; only the rhs is replayed
//!   and back-substituted through the retained [`LuFactors`] in O(n²).
//!
//! Every tier keys on exact bit patterns, so it can never fire on a system
//! that differs from the one it cached — the optimized path is bit-for-bit
//! equivalent to [`mna::solve_newton`] by construction.

use super::mna::{self, MnaLayout, NewtonOpts, SolveContext};
use super::mos_batch::{self, MosBatch};
use crate::elements::{Element, MosParams};
use crate::error::Error;
use crate::linear::{DenseMatrix, LuFactors};
use crate::netlist::{Circuit, ElementId};

pub use super::mos_batch::LimitOpts;

/// How the batched MOSFET block evaluates devices.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) enum DeviceEval {
    /// Every device, every iteration, through the exact arithmetic of
    /// `MosParams::evaluate` — bit-for-bit identical to the reference
    /// assembler.
    #[default]
    Exact,
    /// SPICE-style `fetlim`/`limvds` voltage limiting plus device latency
    /// (see [`MosBatch::eval_limited`]): equivalent to [`Exact`]
    /// (DeviceEval::Exact) at solver tolerance, not bitwise.
    Limited(LimitOpts),
}

/// Which solver backs an analysis run: the reference assembler or the
/// compiled plan, and in the latter case how devices are evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct EngineSel {
    /// Run the naive per-iteration assembler.
    pub reference: bool,
    /// Device evaluation flavour of the plan path (ignored when
    /// `reference` is set).
    pub eval: DeviceEval,
}

/// Which analysis family the plan stamps for. The capacitor/inductor
/// patterns differ structurally between DC (caps open behind gmin,
/// inductors ideal shorts) and transient (integration companions), so the
/// mode is fixed at compile time and asserted against the solve context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlanMode {
    /// DC operating point / sweep: `ctx.caps`/`ctx.inds` are `None`.
    Dc,
    /// Transient step: companion slices are present.
    Tran,
}

/// A value producer for one stamp contribution. `sign` fields are ±1.0;
/// multiplying by ±1.0 is exact, so sign-folded reads match the reference
/// assembler's negations bit for bit.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ValRef {
    /// Fixed at compile time (resistor conductances, incidence ±1).
    Const(f64),
    /// The Newton gmin option (DC capacitor leak conductance).
    Gmin { sign: f64 },
    /// Capacitor companion conductance for slot `slot`.
    CapGeq { slot: usize, sign: f64 },
    /// Inductor companion conductance for slot `slot`.
    IndGeq { slot: usize, sign: f64 },
    /// Capacitor companion history current for slot `slot`.
    CapIeq { slot: usize, sign: f64 },
    /// Inductor companion history current for slot `slot`.
    IndIeq { slot: usize },
    /// Scaled waveform value of independent source `src`.
    Src { src: usize, sign: f64 },
}

/// Evaluates a [`ValRef`] against the current solve inputs.
#[inline]
fn eval_val(val: ValRef, ctx: &SolveContext<'_>, gmin: f64, src_vals: &[f64]) -> f64 {
    match val {
        ValRef::Const(c) => c,
        ValRef::Gmin { sign } => sign * gmin,
        ValRef::CapGeq { slot, sign } => sign * ctx.caps.expect("tran plan needs caps")[slot].geq,
        ValRef::IndGeq { slot, sign } => sign * ctx.inds.expect("tran plan needs inds")[slot].geq,
        ValRef::CapIeq { slot, sign } => sign * ctx.caps.expect("tran plan needs caps")[slot].ieq,
        ValRef::IndIeq { slot } => ctx.inds.expect("tran plan needs inds")[slot].ieq,
        ValRef::Src { src, sign } => sign * src_vals[src],
    }
}

/// One contribution to the system matrix at flat index `idx = row·n + col`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MatOp {
    pub(crate) idx: usize,
    pub(crate) val: ValRef,
}

/// One contribution to the right-hand side at `row`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RhsOp {
    pub(crate) row: usize,
    pub(crate) val: ValRef,
}

/// A per-iteration stamp: either a demoted base/rhs contribution replayed
/// at its original element position, or a nonlinear device linearisation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum IterOp {
    Mat(MatOp),
    Rhs(RhsOp),
    Mosfet {
        rd: Option<usize>,
        rg: Option<usize>,
        rs: Option<usize>,
        params: MosParams,
    },
    Switch {
        ra: Option<usize>,
        rb: Option<usize>,
        rp: Option<usize>,
        rn: Option<usize>,
        threshold: f64,
        g_on: f64,
        g_off: f64,
    },
    Diode {
        ra: Option<usize>,
        rk: Option<usize>,
        i_sat: f64,
        nvt: f64,
    },
}

/// The compiled stamp program for one circuit/mode/layout combination.
#[derive(Debug, Clone)]
pub(crate) struct StampPlan {
    pub(crate) n: usize,
    pub(crate) node_rows: usize,
    pub(crate) mode: PlanMode,
    /// Contributions baked into the cached base matrix at rebase time.
    pub(crate) base_ops: Vec<MatOp>,
    /// Contributions baked into `rhs0` once per solve.
    pub(crate) rhs0_ops: Vec<RhsOp>,
    /// Replayed every Newton iteration, in element order.
    pub(crate) iter_ops: Vec<IterOp>,
    /// Element ids of independent sources, in element order; `ValRef::Src`
    /// indexes into this list. Waveforms are read live from the circuit at
    /// each solve, so `set_waveform` between solves needs no recompile.
    pub(crate) sources: Vec<ElementId>,
    /// Sorted, deduplicated rows of the solution vector that the dynamic
    /// stamps read (device terminal voltages). If none of these entries
    /// changed bit patterns since the last evaluation within one solve,
    /// re-assembly would reproduce the identical system — the basis of
    /// the Newton bypass.
    pub(crate) dyn_reads: Vec<usize>,
    pub(crate) n_cap_slots: usize,
    pub(crate) n_ind_slots: usize,
    /// Element index (into the circuit's element list) that produced each
    /// entry of `base_ops`, for the abstract interpreter's per-element
    /// widening. Parallel to `base_ops`.
    pub(crate) base_elems: Vec<usize>,
    /// Originating element index of each `rhs0_ops` entry.
    pub(crate) rhs0_elems: Vec<usize>,
    /// Originating element index of each `iter_ops` entry.
    pub(crate) iter_elems: Vec<usize>,
}

/// Classification of a pending (non-device) stamp atom during compilation.
#[derive(Debug, Clone, Copy)]
enum Target {
    Mat(usize),
    Rhs(usize),
}

struct PendingAtom {
    seq: usize,
    target: Target,
    val: ValRef,
}

impl StampPlan {
    /// Compiles `ckt` for `mode` against `layout`.
    pub fn compile(ckt: &Circuit, layout: &MnaLayout, mode: PlanMode) -> Self {
        let n = layout.size();
        let node_rows = layout.n_nodes - 1;
        // `first_dyn[target]` is the element index of the first nonlinear
        // device touching that matrix entry / rhs row, or usize::MAX.
        let mut mat_first_dyn = vec![usize::MAX; n * n];
        let mut rhs_first_dyn = vec![usize::MAX; n];

        // Worst-case atom counts: 4 per two-terminal conductance, 2 rhs
        // atoms per capacitor, 1 per inductor — the layout's cap/ind counts
        // give exact preallocation for the companion-driven portions.
        let mut pending: Vec<PendingAtom> =
            Vec::with_capacity(4 * ckt.element_count() + 4 * layout.n_caps + 5 * layout.n_inds);
        let mut rhs_pending: Vec<PendingAtom> =
            Vec::with_capacity(2 * layout.n_caps + layout.n_inds + ckt.element_count());
        let mut devices: Vec<(usize, IterOp)> = Vec::new();
        let mut sources: Vec<ElementId> = Vec::new();

        let row = |node| layout.node_row(node);
        let midx = |r: usize, c: usize| r * n + c;

        // Replicates `stamp_conductance`'s four adds with sign folded into
        // the value reference; entries for grounded terminals are skipped
        // exactly as the reference assembler skips them.
        let push_g = |pending: &mut Vec<PendingAtom>,
                      seq: usize,
                      ra: Option<usize>,
                      rb: Option<usize>,
                      pos: ValRef,
                      neg: ValRef| {
            if let Some(ra) = ra {
                pending.push(PendingAtom {
                    seq,
                    target: Target::Mat(midx(ra, ra)),
                    val: pos,
                });
                if let Some(rb) = rb {
                    pending.push(PendingAtom {
                        seq,
                        target: Target::Mat(midx(ra, rb)),
                        val: neg,
                    });
                }
            }
            if let Some(rb) = rb {
                pending.push(PendingAtom {
                    seq,
                    target: Target::Mat(midx(rb, rb)),
                    val: pos,
                });
                if let Some(ra) = ra {
                    pending.push(PendingAtom {
                        seq,
                        target: Target::Mat(midx(rb, ra)),
                        val: neg,
                    });
                }
            }
        };
        let mark_g =
            |mat_first_dyn: &mut [usize], seq: usize, ra: Option<usize>, rb: Option<usize>| {
                let mut mark = |idx: usize| {
                    if mat_first_dyn[idx] == usize::MAX {
                        mat_first_dyn[idx] = seq;
                    }
                };
                if let Some(ra) = ra {
                    mark(midx(ra, ra));
                    if let Some(rb) = rb {
                        mark(midx(ra, rb));
                    }
                }
                if let Some(rb) = rb {
                    mark(midx(rb, rb));
                    if let Some(ra) = ra {
                        mark(midx(rb, ra));
                    }
                }
            };

        for (seq, (_, _, elem)) in ckt.elements().enumerate() {
            match elem {
                Element::Resistor { a, b, ohms } => {
                    let g = 1.0 / ohms;
                    push_g(
                        &mut pending,
                        seq,
                        row(*a),
                        row(*b),
                        ValRef::Const(g),
                        ValRef::Const(-g),
                    );
                }
                Element::Capacitor { a, b, .. } => {
                    let (ra, rb) = (row(*a), row(*b));
                    match mode {
                        PlanMode::Tran => {
                            let slot = layout.cap_of[seq].expect("capacitor slot");
                            push_g(
                                &mut pending,
                                seq,
                                ra,
                                rb,
                                ValRef::CapGeq { slot, sign: 1.0 },
                                ValRef::CapGeq { slot, sign: -1.0 },
                            );
                            // stamp_current(b → a): `to` (a) first, then `from` (b).
                            if let Some(ra) = ra {
                                rhs_pending.push(PendingAtom {
                                    seq,
                                    target: Target::Rhs(ra),
                                    val: ValRef::CapIeq { slot, sign: 1.0 },
                                });
                            }
                            if let Some(rb) = rb {
                                rhs_pending.push(PendingAtom {
                                    seq,
                                    target: Target::Rhs(rb),
                                    val: ValRef::CapIeq { slot, sign: -1.0 },
                                });
                            }
                        }
                        PlanMode::Dc => {
                            push_g(
                                &mut pending,
                                seq,
                                ra,
                                rb,
                                ValRef::Gmin { sign: 1.0 },
                                ValRef::Gmin { sign: -1.0 },
                            );
                        }
                    }
                }
                Element::Inductor { a, b, .. } => {
                    let br = layout.branch_row(layout.branch_of[seq].expect("inductor branch"));
                    let (ra, rb) = (row(*a), row(*b));
                    if let Some(ra) = ra {
                        pending.push(PendingAtom {
                            seq,
                            target: Target::Mat(midx(ra, br)),
                            val: ValRef::Const(1.0),
                        });
                    }
                    if let Some(rb) = rb {
                        pending.push(PendingAtom {
                            seq,
                            target: Target::Mat(midx(rb, br)),
                            val: ValRef::Const(-1.0),
                        });
                    }
                    match mode {
                        PlanMode::Tran => {
                            let slot = layout.ind_of[seq].expect("inductor slot");
                            pending.push(PendingAtom {
                                seq,
                                target: Target::Mat(midx(br, br)),
                                val: ValRef::Const(1.0),
                            });
                            if let Some(ra) = ra {
                                pending.push(PendingAtom {
                                    seq,
                                    target: Target::Mat(midx(br, ra)),
                                    val: ValRef::IndGeq { slot, sign: -1.0 },
                                });
                            }
                            if let Some(rb) = rb {
                                pending.push(PendingAtom {
                                    seq,
                                    target: Target::Mat(midx(br, rb)),
                                    val: ValRef::IndGeq { slot, sign: 1.0 },
                                });
                            }
                            rhs_pending.push(PendingAtom {
                                seq,
                                target: Target::Rhs(br),
                                val: ValRef::IndIeq { slot },
                            });
                        }
                        PlanMode::Dc => {
                            if let Some(ra) = ra {
                                pending.push(PendingAtom {
                                    seq,
                                    target: Target::Mat(midx(br, ra)),
                                    val: ValRef::Const(1.0),
                                });
                            }
                            if let Some(rb) = rb {
                                pending.push(PendingAtom {
                                    seq,
                                    target: Target::Mat(midx(br, rb)),
                                    val: ValRef::Const(-1.0),
                                });
                            }
                            // rhs[br] = 0.0 on a zeroed rhs: no atom needed.
                        }
                    }
                }
                Element::VoltageSource { pos, neg, .. } => {
                    let src = sources.len();
                    sources.push(ElementId(seq));
                    let br = layout.branch_row(layout.branch_of[seq].expect("vsource branch"));
                    if let Some(rp) = row(*pos) {
                        pending.push(PendingAtom {
                            seq,
                            target: Target::Mat(midx(rp, br)),
                            val: ValRef::Const(1.0),
                        });
                        pending.push(PendingAtom {
                            seq,
                            target: Target::Mat(midx(br, rp)),
                            val: ValRef::Const(1.0),
                        });
                    }
                    if let Some(rn) = row(*neg) {
                        pending.push(PendingAtom {
                            seq,
                            target: Target::Mat(midx(rn, br)),
                            val: ValRef::Const(-1.0),
                        });
                        pending.push(PendingAtom {
                            seq,
                            target: Target::Mat(midx(br, rn)),
                            val: ValRef::Const(-1.0),
                        });
                    }
                    rhs_pending.push(PendingAtom {
                        seq,
                        target: Target::Rhs(br),
                        val: ValRef::Src { src, sign: 1.0 },
                    });
                }
                Element::CurrentSource { from, to, .. } => {
                    let src = sources.len();
                    sources.push(ElementId(seq));
                    if let Some(rt) = row(*to) {
                        rhs_pending.push(PendingAtom {
                            seq,
                            target: Target::Rhs(rt),
                            val: ValRef::Src { src, sign: 1.0 },
                        });
                    }
                    if let Some(rf) = row(*from) {
                        rhs_pending.push(PendingAtom {
                            seq,
                            target: Target::Rhs(rf),
                            val: ValRef::Src { src, sign: -1.0 },
                        });
                    }
                }
                Element::Mosfet { d, g, s, params } => {
                    let (rd, rg, rs) = (row(*d), row(*g), row(*s));
                    devices.push((
                        seq,
                        IterOp::Mosfet {
                            rd,
                            rg,
                            rs,
                            params: *params,
                        },
                    ));
                    let mut mark = |r: Option<usize>, c: Option<usize>| {
                        if let (Some(r), Some(c)) = (r, c) {
                            let idx = midx(r, c);
                            if mat_first_dyn[idx] == usize::MAX {
                                mat_first_dyn[idx] = seq;
                            }
                        }
                    };
                    mark(rd, rd);
                    mark(rd, rg);
                    mark(rd, rs);
                    mark(rs, rd);
                    mark(rs, rg);
                    mark(rs, rs);
                    for r in [rd, rs].into_iter().flatten() {
                        if rhs_first_dyn[r] == usize::MAX {
                            rhs_first_dyn[r] = seq;
                        }
                    }
                }
                Element::Switch {
                    a,
                    b,
                    ctrl_pos,
                    ctrl_neg,
                    threshold,
                    r_on,
                    r_off,
                } => {
                    let (ra, rb) = (row(*a), row(*b));
                    devices.push((
                        seq,
                        IterOp::Switch {
                            ra,
                            rb,
                            rp: row(*ctrl_pos),
                            rn: row(*ctrl_neg),
                            threshold: *threshold,
                            g_on: 1.0 / r_on,
                            g_off: 1.0 / r_off,
                        },
                    ));
                    mark_g(&mut mat_first_dyn, seq, ra, rb);
                }
                Element::Diode { a, k, i_sat, n } => {
                    let (ra, rk) = (row(*a), row(*k));
                    devices.push((
                        seq,
                        IterOp::Diode {
                            ra,
                            rk,
                            i_sat: *i_sat,
                            nvt: n * mna::VT,
                        },
                    ));
                    mark_g(&mut mat_first_dyn, seq, ra, rk);
                    for r in [ra, rk].into_iter().flatten() {
                        if rhs_first_dyn[r] == usize::MAX {
                            rhs_first_dyn[r] = seq;
                        }
                    }
                }
                Element::Vcvs { p, n, cp, cn, gain } => {
                    let br = layout.branch_row(layout.branch_of[seq].expect("vcvs branch"));
                    if let Some(rp) = row(*p) {
                        pending.push(PendingAtom {
                            seq,
                            target: Target::Mat(midx(rp, br)),
                            val: ValRef::Const(1.0),
                        });
                        pending.push(PendingAtom {
                            seq,
                            target: Target::Mat(midx(br, rp)),
                            val: ValRef::Const(1.0),
                        });
                    }
                    if let Some(rn) = row(*n) {
                        pending.push(PendingAtom {
                            seq,
                            target: Target::Mat(midx(rn, br)),
                            val: ValRef::Const(-1.0),
                        });
                        pending.push(PendingAtom {
                            seq,
                            target: Target::Mat(midx(br, rn)),
                            val: ValRef::Const(-1.0),
                        });
                    }
                    if let Some(rcp) = row(*cp) {
                        pending.push(PendingAtom {
                            seq,
                            target: Target::Mat(midx(br, rcp)),
                            val: ValRef::Const(-gain),
                        });
                    }
                    if let Some(rcn) = row(*cn) {
                        pending.push(PendingAtom {
                            seq,
                            target: Target::Mat(midx(br, rcn)),
                            val: ValRef::Const(*gain),
                        });
                    }
                }
                Element::Vccs {
                    from,
                    to,
                    cp,
                    cn,
                    gm,
                } => {
                    let (rcp, rcn) = (row(*cp), row(*cn));
                    if let Some(rt) = row(*to) {
                        if let Some(rcp) = rcp {
                            pending.push(PendingAtom {
                                seq,
                                target: Target::Mat(midx(rt, rcp)),
                                val: ValRef::Const(-gm),
                            });
                        }
                        if let Some(rcn) = rcn {
                            pending.push(PendingAtom {
                                seq,
                                target: Target::Mat(midx(rt, rcn)),
                                val: ValRef::Const(*gm),
                            });
                        }
                    }
                    if let Some(rf) = row(*from) {
                        if let Some(rcp) = rcp {
                            pending.push(PendingAtom {
                                seq,
                                target: Target::Mat(midx(rf, rcp)),
                                val: ValRef::Const(*gm),
                            });
                        }
                        if let Some(rcn) = rcn {
                            pending.push(PendingAtom {
                                seq,
                                target: Target::Mat(midx(rf, rcn)),
                                val: ValRef::Const(-gm),
                            });
                        }
                    }
                }
            }
        }

        // Partition: an atom stays in the cached base / per-solve rhs only
        // if no dynamic device touches its target *earlier* in element
        // order; otherwise it is demoted and replayed at its original
        // position each iteration, preserving the reference assembler's
        // per-entry accumulation order (and therefore exact bit patterns).
        let mut base_ops = Vec::with_capacity(pending.len());
        let mut base_elems = Vec::with_capacity(pending.len());
        let mut rhs0_ops = Vec::with_capacity(rhs_pending.len());
        let mut rhs0_elems = Vec::with_capacity(rhs_pending.len());
        let mut iter_tagged = devices;
        for atom in pending {
            let Target::Mat(idx) = atom.target else {
                unreachable!()
            };
            if mat_first_dyn[idx] < atom.seq {
                iter_tagged.push((atom.seq, IterOp::Mat(MatOp { idx, val: atom.val })));
            } else {
                base_ops.push(MatOp { idx, val: atom.val });
                base_elems.push(atom.seq);
            }
        }
        for atom in rhs_pending {
            let Target::Rhs(r) = atom.target else {
                unreachable!()
            };
            if rhs_first_dyn[r] < atom.seq {
                iter_tagged.push((
                    atom.seq,
                    IterOp::Rhs(RhsOp {
                        row: r,
                        val: atom.val,
                    }),
                ));
            } else {
                rhs0_ops.push(RhsOp {
                    row: r,
                    val: atom.val,
                });
                rhs0_elems.push(atom.seq);
            }
        }
        // Stable sort: atoms sharing an element keep their stamp order.
        iter_tagged.sort_by_key(|(seq, _)| *seq);
        let iter_elems: Vec<usize> = iter_tagged.iter().map(|(seq, _)| *seq).collect();
        let iter_ops: Vec<IterOp> = iter_tagged.into_iter().map(|(_, op)| op).collect();

        let mut dyn_reads: Vec<usize> = Vec::new();
        for op in &iter_ops {
            match *op {
                IterOp::Mosfet { rd, rg, rs, .. } => {
                    dyn_reads.extend([rd, rg, rs].into_iter().flatten());
                }
                IterOp::Switch { rp, rn, .. } => {
                    dyn_reads.extend([rp, rn].into_iter().flatten());
                }
                IterOp::Diode { ra, rk, .. } => {
                    dyn_reads.extend([ra, rk].into_iter().flatten());
                }
                // Demoted atoms depend on the solve context, not on x.
                IterOp::Mat(_) | IterOp::Rhs(_) => {}
            }
        }
        dyn_reads.sort_unstable();
        dyn_reads.dedup();

        let plan = StampPlan {
            n,
            node_rows,
            mode,
            base_ops,
            rhs0_ops,
            iter_ops,
            sources,
            dyn_reads,
            n_cap_slots: layout.n_caps,
            n_ind_slots: layout.n_inds,
            base_elems,
            rhs0_elems,
            iter_elems,
        };
        // Debug builds prove every freshly compiled plan sound before it
        // is allowed near a solver; the `verify-release` feature extends
        // the same proof to release-mode plans so CI can exercise the
        // exact optimized code path (plain release builds skip the check;
        // `repro verify` covers the shipped circuits there).
        #[cfg(any(debug_assertions, feature = "verify-release"))]
        {
            let violations = crate::verify::verify_plan(ckt, layout, &plan);
            assert!(
                violations.is_empty(),
                "stamp-plan verifier rejected a freshly compiled plan: {violations:?}"
            );
        }
        plan
    }
}

/// Hot-path work counters, exposed for tests and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SolverStats {
    /// Newton iterations executed.
    pub iterations: u64,
    /// Full O(n³) LU factorizations performed.
    pub factorizations: u64,
    /// O(n²) back-substitutions performed.
    pub back_substitutions: u64,
    /// Linear solves skipped entirely because the system was bit-identical
    /// to the previous one (solution cache or Newton bypass).
    pub bypasses: u64,
    /// Base-matrix rebuilds.
    pub rebases: u64,
    /// MOSFET evaluations actually performed by the batched device block
    /// (latency hits are *not* counted here).
    pub device_evals: u64,
    /// Devices whose trial voltages were clamped by `fetlim`/`limvds`
    /// (limited mode only; always 0 in exact mode).
    pub limit_clamps: u64,
    /// Devices that reused their previous linearisation because their
    /// terminal voltages stayed inside the latency band with the
    /// operating region unchanged (limited mode only).
    pub latency_hits: u64,
}

/// Newton–Raphson solver driven by a [`StampPlan`], bit-for-bit equivalent
/// to [`mna::solve_newton`] over the same sequence of calls.
///
/// # Cache identity without byte-comparing matrices
///
/// The assembled system is a pure function of six inputs, each guarded by
/// a generation counter that bumps exactly when its bits change:
///
/// * matrix — `base_gen` (static + step-constant part), `iter_mat_gen`
///   (demoted context-only matrix atoms), `dyn_mat_gen` (device
///   linearisations),
/// * rhs — `rhs0_gen` (solve-constant part), `iter_rhs_gen` (demoted
///   context-only rhs atoms), `dyn_rhs_gen` (device currents).
///
/// The replay order is fixed at compile time, so equal generation tuples
/// imply the replay produces the identical system: the solution and
/// factorization caches reduce to a handful of `u64` compares, and the
/// matrix is never even written unless a factorization is actually due.
/// Device evaluations themselves are skipped when every solution entry
/// the devices read (`plan.dyn_reads`) is bit-unchanged since the last
/// evaluation — device values depend only on those reads, the compiled
/// parameters and `gmin`, all of which are checked.
#[derive(Debug, Clone)]
pub(crate) struct PlanSolver {
    plan: StampPlan,
    n: usize,
    /// Packed struct-of-arrays block of every MOSFET in the plan; the
    /// k-th entry corresponds to the k-th `IterOp::Mosfet` of the walk.
    mos: MosBatch,
    /// Device evaluation flavour (exact or limited).
    eval_mode: DeviceEval,
    /// Set when the most recent limited evaluation clamped a trial
    /// voltage: device values were computed at a point other than `x`, so
    /// the Newton bypass must not reuse them and the iteration cannot be
    /// accepted as converged.
    limit_pending: bool,
    /// Whether any demoted context-only atoms live in `iter_ops` (skips
    /// the per-solve refresh walk for the common all-device case).
    has_demoted: bool,
    /// Cached static + step-constant matrix and the bit patterns of the
    /// inputs it was built from.
    base: DenseMatrix,
    base_valid: bool,
    base_gshunt: u64,
    base_gmin: u64,
    base_geq: Vec<u64>,
    /// Bumped on every rebase; part of every matrix identity key.
    base_gen: u64,
    /// Solve-constant rhs portion; the generation bumps only when a
    /// refresh actually changes its bits.
    rhs0: Vec<f64>,
    rhs0_scratch: Vec<f64>,
    rhs0_gen: u64,
    /// Demoted context-only per-iteration atom values (constant across
    /// the iterations of one solve), split by target array, in op order.
    iter_mat_ctx: Vec<f64>,
    iter_mat_scratch: Vec<f64>,
    iter_mat_gen: u64,
    iter_rhs_ctx: Vec<f64>,
    iter_rhs_scratch: Vec<f64>,
    iter_rhs_gen: u64,
    rhs: Vec<f64>,
    src_vals: Vec<f64>,
    /// Evaluated device contributions, in op order; the generations bump
    /// only when an evaluation changes the bits.
    dyn_mat_vals: Vec<f64>,
    dyn_mat_scratch: Vec<f64>,
    dyn_mat_gen: u64,
    dyn_rhs_vals: Vec<f64>,
    dyn_rhs_scratch: Vec<f64>,
    dyn_rhs_gen: u64,
    /// Snapshot of `x[plan.dyn_reads]` and the gmin bits at the last
    /// device evaluation; if both still match, the evaluation is skipped.
    last_reads: Vec<f64>,
    last_eval_gmin: u64,
    reads_valid: bool,
    /// True when no `Switch`/`Diode` ops live in the walk: with every
    /// MOSFET latent, `eval_dynamic` can skip the copy-out walk and the
    /// bit comparison entirely — the recorded values are provably
    /// unchanged.
    dyn_all_mos: bool,
    /// Packed rhs replay program (see [`RhsProg`]): one entry per rhs
    /// contribution of the walk, skipping matrix-only ops entirely.
    rhs_prog: Vec<RhsProg>,
    /// Factors of the last factored system: dense (`LuFactors::factor`)
    /// on the exact path, whose factors must stay bitwise; replayed over
    /// a frozen pivot sequence and recorded fill-in
    /// (`LuFactors::refactor`) on the limited path.
    lu: LuFactors,
    /// Structural nonzero pattern handed to `lu.refactor` (row-major u64
    /// chunks) and the base generation it was built against.
    lu_pattern: Vec<u64>,
    lu_pattern_gen: u64,
    lu_pattern_valid: bool,
    lu_valid: bool,
    lu_base_gen: u64,
    lu_iter_mat_gen: u64,
    lu_dyn_mat_gen: u64,
    prev_valid: bool,
    prev_base_gen: u64,
    prev_rhs0_gen: u64,
    prev_iter_mat_gen: u64,
    prev_iter_rhs_gen: u64,
    prev_dyn_mat_gen: u64,
    prev_dyn_rhs_gen: u64,
    prev_sol: Vec<f64>,
    stats: SolverStats,
    /// Maximum node-voltage update of the most recent Newton iteration —
    /// a residual proxy published through telemetry. Stored
    /// unconditionally (one f64 write per iteration, already computed for
    /// damping) so attaching an observer cannot change solver behaviour.
    last_max_dv: f64,
}

/// One packed step of the rhs replay walk: the same operations
/// `write_rhs` used to pull out of the full `iter_ops` list, in the same
/// order (so every rhs entry keeps its accumulation order and bits), but
/// stored in 12 bytes instead of a full op. Row `u32::MAX` marks a
/// grounded terminal with no rhs entry.
#[derive(Debug, Clone, Copy)]
enum RhsProg {
    /// `rhs[row] += iter_rhs_ctx[next]`
    Ctx { row: u32 },
    /// `rhs[rd] -= dyn_rhs_vals[next]; rhs[rs] += …` (MOSFET pair).
    Mos { rd: u32, rs: u32 },
    /// `rhs[rk] += dyn_rhs_vals[next]; rhs[ra] -= …` (diode pair).
    Diode { rk: u32, ra: u32 },
}

/// Exact bit-pattern equality of two float slices (length included).
/// `==` on floats would conflate ±0.0 and reject NaN; the caches must key
/// on identity.
#[inline]
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl PlanSolver {
    /// Compiles `ckt` and readies all scratch storage.
    pub fn new(ckt: &Circuit, layout: &MnaLayout, mode: PlanMode, eval: DeviceEval) -> Self {
        let plan = StampPlan::compile(ckt, layout, mode);
        let mos = MosBatch::gather(&plan.iter_ops);
        let n = plan.n;
        let n_src = plan.sources.len();
        let has_demoted = plan
            .iter_ops
            .iter()
            .any(|op| matches!(op, IterOp::Mat(_) | IterOp::Rhs(_)));
        let dyn_all_mos = !plan
            .iter_ops
            .iter()
            .any(|op| matches!(op, IterOp::Switch { .. } | IterOp::Diode { .. }));
        let row32 = |r: Option<usize>| r.map_or(u32::MAX, |r| r as u32);
        let rhs_prog = plan
            .iter_ops
            .iter()
            .filter_map(|op| match *op {
                IterOp::Mat(_) | IterOp::Switch { .. } => None,
                IterOp::Rhs(RhsOp { row, .. }) => Some(RhsProg::Ctx { row: row as u32 }),
                IterOp::Mosfet { rd, rs, .. } => Some(RhsProg::Mos {
                    rd: row32(rd),
                    rs: row32(rs),
                }),
                IterOp::Diode { ra, rk, .. } => Some(RhsProg::Diode {
                    rk: row32(rk),
                    ra: row32(ra),
                }),
            })
            .collect();
        // Exact slot counts per value list, so the first evaluation does
        // not reallocate mid-push.
        let (mut n_dyn_mat, mut n_dyn_rhs, mut n_ctx_mat, mut n_ctx_rhs) = (0, 0, 0, 0);
        for op in &plan.iter_ops {
            match op {
                IterOp::Mat(_) => n_ctx_mat += 1,
                IterOp::Rhs(_) => n_ctx_rhs += 1,
                IterOp::Mosfet { .. } => {
                    n_dyn_mat += 3;
                    n_dyn_rhs += 1;
                }
                IterOp::Switch { .. } => n_dyn_mat += 1,
                IterOp::Diode { .. } => {
                    n_dyn_mat += 1;
                    n_dyn_rhs += 1;
                }
            }
        }
        PlanSolver {
            plan,
            n,
            mos,
            eval_mode: eval,
            limit_pending: false,
            has_demoted,
            base: DenseMatrix::zeros(n),
            base_valid: false,
            base_gshunt: 0,
            base_gmin: 0,
            base_geq: Vec::new(),
            base_gen: 0,
            rhs0: vec![0.0; n],
            rhs0_scratch: vec![0.0; n],
            rhs0_gen: 0,
            iter_mat_ctx: Vec::with_capacity(n_ctx_mat),
            iter_mat_scratch: Vec::with_capacity(n_ctx_mat),
            iter_mat_gen: 0,
            iter_rhs_ctx: Vec::with_capacity(n_ctx_rhs),
            iter_rhs_scratch: Vec::with_capacity(n_ctx_rhs),
            iter_rhs_gen: 0,
            rhs: vec![0.0; n],
            src_vals: vec![0.0; n_src],
            dyn_mat_vals: Vec::with_capacity(n_dyn_mat),
            dyn_mat_scratch: Vec::with_capacity(n_dyn_mat),
            dyn_mat_gen: 0,
            dyn_rhs_vals: Vec::with_capacity(n_dyn_rhs),
            dyn_rhs_scratch: Vec::with_capacity(n_dyn_rhs),
            dyn_rhs_gen: 0,
            last_reads: Vec::new(),
            last_eval_gmin: 0,
            reads_valid: false,
            dyn_all_mos,
            rhs_prog,
            lu: LuFactors::new(n),
            lu_pattern: Vec::new(),
            lu_pattern_gen: 0,
            lu_pattern_valid: false,
            lu_valid: false,
            lu_base_gen: 0,
            lu_iter_mat_gen: 0,
            lu_dyn_mat_gen: 0,
            prev_valid: false,
            prev_base_gen: 0,
            prev_rhs0_gen: 0,
            prev_iter_mat_gen: 0,
            prev_iter_rhs_gen: 0,
            prev_dyn_mat_gen: 0,
            prev_dyn_rhs_gen: 0,
            prev_sol: vec![0.0; n],
            stats: SolverStats::default(),
            last_max_dv: 0.0,
        }
    }

    /// Work counters accumulated since construction.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Maximum node-voltage update of the most recent Newton iteration.
    pub fn last_max_dv(&self) -> f64 {
        self.last_max_dv
    }

    /// Rebuilds the cached base matrix if any input it depends on changed
    /// bit patterns (compared allocation-free against the stored key). A
    /// rebase bumps `base_gen`, which implicitly invalidates the LU and
    /// solution caches.
    fn ensure_base(&mut self, ctx: &SolveContext<'_>, gmin: f64) {
        fn geq_bits<'a>(ctx: &'a SolveContext<'_>) -> impl Iterator<Item = u64> + 'a {
            ctx.caps
                .into_iter()
                .flatten()
                .map(|c| c.geq.to_bits())
                .chain(ctx.inds.into_iter().flatten().map(|i| i.geq.to_bits()))
        }
        debug_assert!(
            ctx.caps.is_none_or(|c| c.len() == self.plan.n_cap_slots),
            "capacitor companion slice does not match the compiled plan"
        );
        debug_assert!(
            ctx.inds.is_none_or(|i| i.len() == self.plan.n_ind_slots),
            "inductor companion slice does not match the compiled plan"
        );
        let gshunt_bits = ctx.gshunt.to_bits();
        let gmin_bits = gmin.to_bits();
        if self.base_valid
            && self.base_gshunt == gshunt_bits
            && self.base_gmin == gmin_bits
            && geq_bits(ctx).eq(self.base_geq.iter().copied())
        {
            return;
        }
        self.base_gshunt = gshunt_bits;
        self.base_gmin = gmin_bits;
        self.base_geq.clear();
        self.base_geq.extend(geq_bits(ctx));
        self.base_valid = true;
        self.base_gen = self.base_gen.wrapping_add(1);

        self.base.clear();
        if ctx.gshunt > 0.0 {
            for r in 0..self.plan.node_rows {
                self.base.add(r, r, ctx.gshunt);
            }
        }
        let slice = self.base.as_mut_slice();
        for op in &self.plan.base_ops {
            slice[op.idx] += eval_val(op.val, ctx, gmin, &self.src_vals);
        }
        self.stats.rebases += 1;
    }

    /// Refreshes the per-solve inputs: scaled source values (read live from
    /// the circuit, so `set_waveform` between solves is honoured), the
    /// solve-constant portion of the right-hand side, and the demoted
    /// context-only per-iteration atoms (their values cannot change within
    /// a solve, so they are computed once here rather than per iteration).
    /// Each generation bumps only when the refreshed bits actually differ,
    /// so a repeated solve keeps its cache identity.
    fn refresh_solve_inputs(&mut self, ckt: &Circuit, ctx: &SolveContext<'_>, gmin: f64) {
        for (k, &id) in self.plan.sources.iter().enumerate() {
            let w = match ckt.element(id) {
                Element::VoltageSource { waveform, .. }
                | Element::CurrentSource { waveform, .. } => waveform,
                _ => unreachable!("source list points at a non-source"),
            };
            self.src_vals[k] = ctx.source_scale * w.value(ctx.time);
        }
        self.rhs0_scratch.fill(0.0);
        for op in &self.plan.rhs0_ops {
            self.rhs0_scratch[op.row] += eval_val(op.val, ctx, gmin, &self.src_vals);
        }
        if !bits_eq(&self.rhs0_scratch, &self.rhs0) {
            std::mem::swap(&mut self.rhs0, &mut self.rhs0_scratch);
            self.rhs0_gen = self.rhs0_gen.wrapping_add(1);
        }
        if !self.has_demoted {
            return;
        }
        self.iter_mat_scratch.clear();
        self.iter_rhs_scratch.clear();
        for op in &self.plan.iter_ops {
            match *op {
                IterOp::Mat(MatOp { val, .. }) => {
                    self.iter_mat_scratch
                        .push(eval_val(val, ctx, gmin, &self.src_vals));
                }
                IterOp::Rhs(RhsOp { val, .. }) => {
                    self.iter_rhs_scratch
                        .push(eval_val(val, ctx, gmin, &self.src_vals));
                }
                _ => {}
            }
        }
        if !bits_eq(&self.iter_mat_scratch, &self.iter_mat_ctx) {
            std::mem::swap(&mut self.iter_mat_ctx, &mut self.iter_mat_scratch);
            self.iter_mat_gen = self.iter_mat_gen.wrapping_add(1);
        }
        if !bits_eq(&self.iter_rhs_scratch, &self.iter_rhs_ctx) {
            std::mem::swap(&mut self.iter_rhs_ctx, &mut self.iter_rhs_scratch);
            self.iter_rhs_gen = self.iter_rhs_gen.wrapping_add(1);
        }
    }

    /// Evaluates every device contribution at `x` into the dynamic value
    /// lists (in op order) and snapshots the x entries the devices read.
    /// Nothing is written to the matrix or rhs here: `fill_mat` /
    /// `write_rhs` replay the recorded values only when the identity keys
    /// say the system actually changed. The generations bump only when an
    /// evaluation changes the bits, so an oscillation-free Newton tail
    /// keeps its factorization identity for free.
    fn eval_dynamic(&mut self, x: &[f64], gmin: f64) {
        // Batched MOSFET pass: one tight loop over the packed
        // struct-of-arrays block replaces per-device dispatch; the walk
        // below only copies the results out in op order, preserving the
        // reference assembler's accumulation order (and bits).
        if self.mos.len() > 0 {
            let tally = match self.eval_mode {
                DeviceEval::Exact => self.mos.eval_exact(x),
                DeviceEval::Limited(opts) => {
                    if self.last_eval_gmin != gmin.to_bits() {
                        // Homotopy stage change: drop stale anchors.
                        self.mos.invalidate_anchors();
                    }
                    self.mos.eval_limited(x, &opts)
                }
            };
            self.stats.device_evals += tally.evals;
            self.stats.limit_clamps += tally.clamps;
            self.stats.latency_hits += tally.latency_hits;
            self.limit_pending = mos_batch::forces_iteration(&tally);
            // Whole-batch latency hit with no other dynamic devices in the
            // walk: every recorded value is provably bit-unchanged, so the
            // copy-out walk and the generation comparison are skipped.
            // Only the read snapshot below still needs refreshing.
            if self.dyn_all_mos && tally.evals == 0 && tally.clamps == 0 {
                self.snapshot_reads(x, gmin);
                return;
            }
        }
        self.dyn_mat_scratch.clear();
        self.dyn_rhs_scratch.clear();
        let v = |r: Option<usize>| r.map_or(0.0, |r| x[r]);
        let mut mk = 0;
        for op in &self.plan.iter_ops {
            match *op {
                // Context-only atoms are refreshed per solve, not here.
                IterOp::Mat(_) | IterOp::Rhs(_) => {}
                IterOp::Mosfet { .. } => {
                    self.dyn_mat_scratch.push(self.mos.gdd[mk]);
                    self.dyn_mat_scratch.push(self.mos.gdg[mk]);
                    self.dyn_mat_scratch.push(self.mos.gds_node[mk]);
                    self.dyn_rhs_scratch.push(self.mos.i_const[mk]);
                    mk += 1;
                }
                IterOp::Switch {
                    rp,
                    rn,
                    threshold,
                    g_on,
                    g_off,
                    ..
                } => {
                    let vc = v(rp) - v(rn);
                    self.dyn_mat_scratch
                        .push(if vc > threshold { g_on } else { g_off });
                }
                IterOp::Diode { ra, rk, i_sat, nvt } => {
                    let vd = v(ra) - v(rk);
                    let arg = vd / nvt;
                    let (i, g) = if arg > mna::DIODE_EXP_MAX {
                        let e = mna::DIODE_EXP_MAX.exp();
                        let i0 = i_sat * (e - 1.0);
                        let g0 = i_sat * e / nvt;
                        (i0 + g0 * (vd - mna::DIODE_EXP_MAX * nvt), g0)
                    } else {
                        let e = arg.exp();
                        (i_sat * (e - 1.0), i_sat * e / nvt)
                    };
                    self.dyn_mat_scratch.push(g + gmin);
                    self.dyn_rhs_scratch.push(i - g * vd);
                }
            }
        }
        debug_assert_eq!(mk, self.mos.len());
        if !bits_eq(&self.dyn_mat_scratch, &self.dyn_mat_vals) {
            std::mem::swap(&mut self.dyn_mat_vals, &mut self.dyn_mat_scratch);
            self.dyn_mat_gen = self.dyn_mat_gen.wrapping_add(1);
        }
        if !bits_eq(&self.dyn_rhs_scratch, &self.dyn_rhs_vals) {
            std::mem::swap(&mut self.dyn_rhs_vals, &mut self.dyn_rhs_scratch);
            self.dyn_rhs_gen = self.dyn_rhs_gen.wrapping_add(1);
        }
        self.snapshot_reads(x, gmin);
    }

    /// Records the solution entries and gmin the devices were last
    /// evaluated (or latched) against, arming the Newton bypass.
    fn snapshot_reads(&mut self, x: &[f64], gmin: f64) {
        self.last_reads.clear();
        self.last_reads
            .extend(self.plan.dyn_reads.iter().map(|&r| x[r]));
        self.last_eval_gmin = gmin.to_bits();
        self.reads_valid = true;
    }

    /// rhs0 copy + recorded rhs contributions, replayed in op order:
    /// demoted context-only atoms from `iter_rhs_ctx`, device currents
    /// from `dyn_rhs_vals`. (rhs and matrix writes target disjoint arrays,
    /// so splitting them keeps every entry's accumulation order, and
    /// therefore its bits.)
    fn write_rhs(&mut self) {
        self.rhs.copy_from_slice(&self.rhs0);
        let rhs = &mut self.rhs[..];
        let mut cc = 0;
        let mut dc = 0;
        for op in &self.rhs_prog {
            match *op {
                RhsProg::Ctx { row } => {
                    rhs[row as usize] += self.iter_rhs_ctx[cc];
                    cc += 1;
                }
                RhsProg::Mos { rd, rs } => {
                    let i_const = self.dyn_rhs_vals[dc];
                    dc += 1;
                    if rd != u32::MAX {
                        rhs[rd as usize] -= i_const;
                    }
                    if rs != u32::MAX {
                        rhs[rs as usize] += i_const;
                    }
                }
                RhsProg::Diode { rk, ra } => {
                    let i_const = self.dyn_rhs_vals[dc];
                    dc += 1;
                    // stamp_current(a → k): `to` (k) first, then `from` (a).
                    if rk != u32::MAX {
                        rhs[rk as usize] += i_const;
                    }
                    if ra != u32::MAX {
                        rhs[ra as usize] -= i_const;
                    }
                }
            }
        }
        debug_assert_eq!(cc, self.iter_rhs_ctx.len());
        debug_assert_eq!(dc, self.dyn_rhs_vals.len());
    }
}

impl PlanSolver {
    /// Rebuilds the structural nonzero pattern handed to
    /// `LuFactors::refactor`: base nonzeros, the diagonal, and every
    /// position an iteration op can write (conditional MOSFET rows
    /// included). Base *values* are constant within one base generation,
    /// so the scan of its numeric nonzeros is structurally sound until
    /// the next rebase.
    fn rebuild_lu_pattern(&mut self) {
        let n = self.n;
        let chunks = n.div_ceil(64);
        let mut pat = std::mem::take(&mut self.lu_pattern);
        pat.clear();
        pat.resize(n * chunks, 0u64);
        let set = |pat: &mut Vec<u64>, r: usize, c: usize| {
            pat[r * chunks + c / 64] |= 1u64 << (c % 64);
        };
        let b = self.base.as_slice();
        for r in 0..n {
            for c in 0..n {
                if b[r * n + c] != 0.0 {
                    set(&mut pat, r, c);
                }
            }
            set(&mut pat, r, r);
        }
        for op in &self.plan.iter_ops {
            match *op {
                IterOp::Mat(MatOp { idx, .. }) => set(&mut pat, idx / n, idx % n),
                IterOp::Rhs(_) => {}
                IterOp::Mosfet { rd, rg, rs, .. } => {
                    for row in [rd, rs].into_iter().flatten() {
                        set(&mut pat, row, row);
                        for col in [rd, rg, rs].into_iter().flatten() {
                            set(&mut pat, row, col);
                        }
                    }
                }
                IterOp::Switch { ra, rb, .. } | IterOp::Diode { ra, rk: rb, .. } => {
                    for row in [ra, rb].into_iter().flatten() {
                        set(&mut pat, row, row);
                        for col in [ra, rb].into_iter().flatten() {
                            set(&mut pat, row, col);
                        }
                    }
                }
            }
        }
        self.lu_pattern = pat;
        self.lu.invalidate_structure();
        self.lu_pattern_gen = self.base_gen;
        self.lu_pattern_valid = true;
    }

    /// Factors the currently recorded system and solves `self.rhs`
    /// against it, stamping the generation identity so `fresh`/`lu_hit`
    /// checks see the new factors. The exact path fuses the rhs into the
    /// dense elimination sweep (one pass, as the reference assembler's
    /// `solve_in_place` does); the limited path replays the recorded
    /// elimination structure, with no bitwise contract to honour.
    fn factor_current(&mut self, gmin: f64) -> Result<(), Error> {
        self.lu_valid = false;
        let n = self.n;
        // Structure replay serves MOSFET circuits under limited
        // evaluation only: switch conductances swing a dozen decades, for
        // which a frozen pivot order is numerically fragile — and keeping
        // MOSFET-free circuits on dense factors keeps them bitwise
        // identical to the reference even in limited mode.
        let replays = matches!(self.eval_mode, DeviceEval::Limited(_)) && self.mos.len() > 0;
        if replays && (!self.lu_pattern_valid || self.lu_pattern_gen != self.base_gen) {
            self.rebuild_lu_pattern();
        }
        let PlanSolver {
            lu,
            lu_pattern,
            base,
            plan,
            iter_mat_ctx,
            dyn_mat_vals,
            rhs,
            ..
        } = self;
        let fill = |buf: &mut [f64]| {
            fill_mat(
                buf,
                base,
                &plan.iter_ops,
                iter_mat_ctx,
                dyn_mat_vals,
                gmin,
                n,
            )
        };
        if replays {
            lu.refactor(n, lu_pattern, fill)?;
            lu.solve(rhs);
        } else {
            lu.factor(n, fill, Some(rhs))?;
        }
        self.lu_base_gen = self.base_gen;
        self.lu_iter_mat_gen = self.iter_mat_gen;
        self.lu_dyn_mat_gen = self.dyn_mat_gen;
        self.lu_valid = true;
        self.stats.factorizations += 1;
        Ok(())
    }
}

/// Base copy + recorded matrix contributions, replayed in op order — the
/// exact additions `mna::assemble` performs on the matrix. Demoted
/// context-only atoms come from `ctx_vals`, device linearisations from
/// `dev_vals`. A free function (not a method) so `LuFactors::factor`
/// can assemble straight into the factorization buffer while the solver's
/// other fields stay borrowed.
fn fill_mat(
    mat: &mut [f64],
    base: &DenseMatrix,
    iter_ops: &[IterOp],
    ctx_vals: &[f64],
    dev_vals: &[f64],
    gmin: f64,
    n: usize,
) {
    mat.copy_from_slice(base.as_slice());
    let mut cc = 0;
    let mut dc = 0;
    for op in iter_ops {
        match *op {
            IterOp::Mat(MatOp { idx, .. }) => {
                mat[idx] += ctx_vals[cc];
                cc += 1;
            }
            IterOp::Rhs(_) => {}
            IterOp::Mosfet { rd, rg, rs, .. } => {
                let gdd = dev_vals[dc];
                let gdg = dev_vals[dc + 1];
                let gds_node = dev_vals[dc + 2];
                dc += 3;
                if let Some(rd) = rd {
                    mat[rd * n + rd] += gdd;
                    if let Some(rg) = rg {
                        mat[rd * n + rg] += gdg;
                    }
                    if let Some(rs) = rs {
                        mat[rd * n + rs] += gds_node;
                    }
                }
                if let Some(rs_row) = rs {
                    if let Some(rd) = rd {
                        mat[rs_row * n + rd] += -gdd;
                    }
                    if let Some(rg) = rg {
                        mat[rs_row * n + rg] += -gdg;
                    }
                    mat[rs_row * n + rs_row] += -gds_node;
                }
                // Channel gmin, in stamp_conductance's entry order.
                if let Some(ra) = rd {
                    mat[ra * n + ra] += gmin;
                    if let Some(rb) = rs {
                        mat[ra * n + rb] += -gmin;
                    }
                }
                if let Some(rb) = rs {
                    mat[rb * n + rb] += gmin;
                    if let Some(ra) = rd {
                        mat[rb * n + ra] += -gmin;
                    }
                }
            }
            IterOp::Switch { ra, rb, .. } => {
                let g = dev_vals[dc];
                dc += 1;
                if let Some(ra) = ra {
                    mat[ra * n + ra] += g;
                    if let Some(rb) = rb {
                        mat[ra * n + rb] += -g;
                    }
                }
                if let Some(rb) = rb {
                    mat[rb * n + rb] += g;
                    if let Some(ra) = ra {
                        mat[rb * n + ra] += -g;
                    }
                }
            }
            IterOp::Diode { ra, rk, .. } => {
                let gt = dev_vals[dc];
                dc += 1;
                if let Some(ra) = ra {
                    mat[ra * n + ra] += gt;
                    if let Some(rk) = rk {
                        mat[ra * n + rk] += -gt;
                    }
                }
                if let Some(rk) = rk {
                    mat[rk * n + rk] += gt;
                    if let Some(ra) = ra {
                        mat[rk * n + ra] += -gt;
                    }
                }
            }
        }
    }
    debug_assert_eq!(cc, ctx_vals.len());
    debug_assert_eq!(dc, dev_vals.len());
}

impl PlanSolver {
    /// Solves the evaluated system, leaving the solution in `self.rhs`.
    /// Tiers: solution cache (skip everything), factorization cache (skip
    /// the O(n³) elimination), full factorization. Every tier is bit-for-
    /// bit equivalent to a fresh `solve_in_place` on the assembled system.
    fn solve_linear(&mut self, gmin: f64) -> Result<(), Error> {
        if self.prev_valid
            && self.prev_base_gen == self.base_gen
            && self.prev_iter_mat_gen == self.iter_mat_gen
            && self.prev_dyn_mat_gen == self.dyn_mat_gen
            && self.prev_rhs0_gen == self.rhs0_gen
            && self.prev_iter_rhs_gen == self.iter_rhs_gen
            && self.prev_dyn_rhs_gen == self.dyn_rhs_gen
        {
            self.rhs.copy_from_slice(&self.prev_sol);
            self.stats.bypasses += 1;
            return Ok(());
        }
        let lu_hit = self.lu_valid
            && self.lu_base_gen == self.base_gen
            && self.lu_iter_mat_gen == self.iter_mat_gen
            && self.lu_dyn_mat_gen == self.dyn_mat_gen;
        self.write_rhs();
        if lu_hit {
            self.lu.solve(&mut self.rhs);
        } else {
            self.factor_current(gmin)?;
        }
        self.stats.back_substitutions += 1;
        self.prev_base_gen = self.base_gen;
        self.prev_iter_mat_gen = self.iter_mat_gen;
        self.prev_dyn_mat_gen = self.dyn_mat_gen;
        self.prev_rhs0_gen = self.rhs0_gen;
        self.prev_iter_rhs_gen = self.iter_rhs_gen;
        self.prev_dyn_rhs_gen = self.dyn_rhs_gen;
        self.prev_sol.copy_from_slice(&self.rhs);
        self.prev_valid = true;
        Ok(())
    }

    /// Damped Newton–Raphson over the compiled plan; drop-in replacement
    /// for [`mna::solve_newton`] with identical results and errors.
    pub fn solve(
        &mut self,
        ckt: &Circuit,
        layout: &MnaLayout,
        x: &mut [f64],
        ctx: SolveContext<'_>,
        opts: &NewtonOpts,
        analysis: &'static str,
    ) -> Result<usize, Error> {
        let n = self.n;
        let node_rows = layout.n_nodes - 1;
        debug_assert_eq!(x.len(), n);
        debug_assert_eq!(
            self.plan.mode,
            if ctx.caps.is_some() {
                PlanMode::Tran
            } else {
                PlanMode::Dc
            },
            "plan mode does not match solve context"
        );
        self.ensure_base(&ctx, opts.gmin);
        self.refresh_solve_inputs(ckt, &ctx, opts.gmin);
        let damp_enabled = ckt.has_nonlinear_elements();
        let gmin_bits = opts.gmin.to_bits();

        for iter in 1..=opts.max_iter {
            self.stats.iterations += 1;
            // Newton bypass: device values are pure functions of
            // `x[dyn_reads]`, the compiled parameters and gmin, so if no
            // read moved since the last evaluation — whether that was an
            // earlier iteration or a previous solve — re-evaluating would
            // reproduce the same bits and is skipped. `solve_linear` then
            // decides from the generation keys how much of the linear
            // solve can be reused.
            let unchanged = self.reads_valid
                && !self.limit_pending
                && self.last_eval_gmin == gmin_bits
                && self
                    .plan
                    .dyn_reads
                    .iter()
                    .zip(&self.last_reads)
                    .all(|(&r, lv)| x[r].to_bits() == lv.to_bits());
            if !unchanged {
                self.eval_dynamic(x, opts.gmin);
            }
            // A clamped limited evaluation linearised some device at a
            // point other than the trial solution; the step may not be
            // accepted until a clamp-free evaluation confirms it.
            let clamp_forced = self.limit_pending;
            self.solve_linear(opts.gmin)?;
            let work = &self.rhs;

            let mut max_dv = 0.0f64;
            for (r, w) in work.iter().enumerate().take(node_rows) {
                max_dv = max_dv.max((w - x[r]).abs());
            }
            self.last_max_dv = max_dv;
            let damp = if damp_enabled && max_dv > opts.max_step_v {
                opts.max_step_v / max_dv
            } else {
                1.0
            };

            let mut converged = damp == 1.0 && !clamp_forced;
            for r in 0..n {
                let delta = (work[r] - x[r]) * damp;
                let tol = if r < node_rows {
                    opts.abstol_v + opts.reltol * x[r].abs()
                } else {
                    opts.abstol_i + opts.reltol * x[r].abs()
                };
                if delta.abs() > tol {
                    converged = false;
                }
                x[r] += delta;
            }

            if converged {
                return Ok(iter);
            }
        }
        Err(Error::NonConvergence {
            analysis,
            time: ctx.time,
            iterations: opts.max_iter,
            stage: "newton",
            attempts: 0,
        })
    }
}

/// The solver behind an analysis run: either the compiled plan path or the
/// naive reference assembler (kept for golden-equivalence tests and as the
/// benchmark baseline).
#[derive(Debug)]
pub(crate) enum SolverEngine {
    /// Compiled stamp plan with factorization reuse and solve bypass.
    Plan(Box<PlanSolver>),
    /// Per-iteration `assemble` + `solve_in_place`, exactly as shipped
    /// before the hot-path overhaul.
    Reference { mat: DenseMatrix, work: Vec<f64> },
}

impl SolverEngine {
    /// Builds the engine for `ckt`; `sel` picks the reference path or the
    /// plan path with its device-evaluation flavour.
    pub fn new(ckt: &Circuit, layout: &MnaLayout, mode: PlanMode, sel: EngineSel) -> Self {
        if sel.reference {
            SolverEngine::Reference {
                mat: DenseMatrix::zeros(layout.size()),
                work: Vec::new(),
            }
        } else {
            SolverEngine::Plan(Box::new(PlanSolver::new(ckt, layout, mode, sel.eval)))
        }
    }

    /// Runs one Newton solve; both variants produce identical results.
    #[allow(clippy::too_many_arguments)] // mirrors solve_newton's plumbing
    pub fn solve(
        &mut self,
        ckt: &Circuit,
        layout: &MnaLayout,
        x: &mut [f64],
        ctx: SolveContext<'_>,
        opts: &NewtonOpts,
        analysis: &'static str,
    ) -> Result<usize, Error> {
        match self {
            SolverEngine::Plan(p) => p.solve(ckt, layout, x, ctx, opts, analysis),
            SolverEngine::Reference { mat, work } => {
                mna::solve_newton(ckt, layout, x, ctx, opts, analysis, mat, work)
            }
        }
    }

    /// Plan work counters; `None` on the reference path.
    #[allow(dead_code)] // used by tests and benchmarks
    pub fn stats(&self) -> Option<SolverStats> {
        match self {
            SolverEngine::Plan(p) => Some(p.stats()),
            SolverEngine::Reference { .. } => None,
        }
    }

    /// Public counter snapshot for telemetry; `None` on the reference
    /// path, which keeps no counters.
    pub fn counters(&self) -> Option<crate::telemetry::SolverCounters> {
        self.stats().map(crate::telemetry::SolverCounters::from)
    }

    /// Maximum node-voltage update of the most recent Newton iteration;
    /// `None` on the reference path.
    pub fn last_max_dv(&self) -> Option<f64> {
        match self {
            SolverEngine::Plan(p) => Some(p.last_max_dv()),
            SolverEngine::Reference { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::mna::{CapCompanion, IndCompanion};
    use crate::linear::DenseMatrix;
    use crate::waveform::Waveform;

    /// Runs both paths over the same solve sequence and asserts exact
    /// bit-level agreement of the solution vectors.
    fn assert_bitwise_parity(
        ckt: &Circuit,
        mode: PlanMode,
        contexts: &[(f64, f64, f64)], // (time, source_scale, gshunt)
    ) -> SolverStats {
        let layout = MnaLayout::new(ckt);
        let n = layout.size();
        let opts = NewtonOpts::default();
        let mut plan = PlanSolver::new(ckt, &layout, mode, DeviceEval::Exact);
        let mut mat = DenseMatrix::zeros(n);
        let mut work = Vec::new();
        let mut x_plan = vec![0.0; n];
        let mut x_ref = vec![0.0; n];
        for &(time, source_scale, gshunt) in contexts {
            let ctx = SolveContext {
                time,
                source_scale,
                caps: None,
                inds: None,
                gshunt,
            };
            let it_p = plan
                .solve(ckt, &layout, &mut x_plan, ctx, &opts, "dc")
                .unwrap();
            let it_r = mna::solve_newton(
                ckt, &layout, &mut x_ref, ctx, &opts, "dc", &mut mat, &mut work,
            )
            .unwrap();
            assert_eq!(it_p, it_r, "iteration counts diverged");
            for (a, b) in x_plan.iter().zip(&x_ref) {
                assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
            }
        }
        plan.stats()
    }

    fn nmos_inverter() -> Circuit {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(2.5));
        ckt.vsource("VIN", vin, Circuit::GND, Waveform::dc(2.5));
        // Depletion-free NMOS inverter with resistive pull-up; the mosfet
        // is stamped BEFORE the resistor that shares the output node, so
        // the resistor's (out, out) contribution must be demoted to keep
        // the accumulation order of the reference assembler.
        ckt.mosfet(
            "M1",
            out,
            vin,
            Circuit::GND,
            crate::elements::MosParams::nmos(320e-9, 1.2e-6),
        );
        ckt.resistor("RL", vdd, out, 10e3);
        ckt
    }

    #[test]
    fn linear_divider_matches_reference_bitwise() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(2.5));
        ckt.resistor("R1", vin, mid, 1e3);
        ckt.resistor("R2", mid, Circuit::GND, 1e3);
        let stats = assert_bitwise_parity(
            &ckt,
            PlanMode::Dc,
            &[(0.0, 1.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.5, 0.0)],
        );
        // Same matrix across all three solves: one factorization total.
        assert_eq!(stats.factorizations, 1);
        // Second solve is identical (A, b): served from the solution cache.
        assert!(stats.bypasses >= 1, "stats: {stats:?}");
    }

    #[test]
    fn mosfet_demotion_keeps_bitwise_parity() {
        let ckt = nmos_inverter();
        let stats = assert_bitwise_parity(
            &ckt,
            PlanMode::Dc,
            &[(0.0, 1.0, 0.0), (0.0, 1.0, 1e-3), (0.0, 1.0, 0.0)],
        );
        // 0 → 1e-3 → 0: each gshunt change differs from the cached key.
        assert_eq!(stats.rebases, 3, "gshunt changes must rebase");
    }

    #[test]
    fn switch_circuit_hits_solution_cache() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let ctrl = ckt.node("ctrl");
        let out = ckt.node("out");
        ckt.vsource("VDD", vdd, Circuit::GND, Waveform::dc(2.5));
        ckt.vsource("VC", ctrl, Circuit::GND, Waveform::dc(2.5));
        ckt.switch("S1", vdd, out, ctrl, Circuit::GND, 1.25, 1e3, 1e12);
        ckt.resistor("RL", out, Circuit::GND, 1e4);
        let stats = assert_bitwise_parity(
            &ckt,
            PlanMode::Dc,
            &[(0.0, 1.0, 0.0), (0.0, 1.0, 0.0), (0.0, 1.0, 0.0)],
        );
        // The cold start sees the switch off (vc = 0); from iteration 2 on
        // the source-pinned control holds it on, so exactly two distinct
        // Jacobians exist across all three solves and every repeated
        // (A, b) system is served from the solution cache.
        assert_eq!(stats.factorizations, 2, "stats: {stats:?}");
        assert!(stats.bypasses >= 5, "stats: {stats:?}");
    }

    #[test]
    fn diode_circuit_matches_reference_bitwise() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(5.0));
        ckt.resistor("R1", vin, out, 1e3);
        ckt.diode("D1", out, Circuit::GND, 1e-14, 1.0);
        assert_bitwise_parity(&ckt, PlanMode::Dc, &[(0.0, 1.0, 0.0), (0.0, 1.0, 0.0)]);
    }

    #[test]
    fn transient_companions_match_reference_bitwise() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("V1", vin, Circuit::GND, Waveform::dc(1.0));
        ckt.resistor("R1", vin, out, 1e3);
        ckt.capacitor("C1", out, Circuit::GND, 1e-9);
        let l = ckt.node("l");
        ckt.inductor("L1", out, l, 1e-6);
        ckt.resistor("R2", l, Circuit::GND, 50.0);

        let layout = MnaLayout::new(&ckt);
        let n = layout.size();
        let opts = NewtonOpts::default();
        let mut plan = PlanSolver::new(&ckt, &layout, PlanMode::Tran, DeviceEval::Exact);
        let mut mat = DenseMatrix::zeros(n);
        let mut work = Vec::new();
        let mut x_plan = vec![0.0; n];
        let mut x_ref = vec![0.0; n];
        let caps = [CapCompanion {
            geq: 1e-9 / 1e-9,
            ieq: 0.125,
        }];
        let inds = [IndCompanion {
            geq: 1e-9 / 1e-6,
            ieq: 3e-4,
        }];
        for _ in 0..3 {
            let ctx = SolveContext {
                time: 1e-9,
                source_scale: 1.0,
                caps: Some(&caps),
                inds: Some(&inds),
                gshunt: 0.0,
            };
            plan.solve(&ckt, &layout, &mut x_plan, ctx, &opts, "tran")
                .unwrap();
            mna::solve_newton(
                &ckt, &layout, &mut x_ref, ctx, &opts, "tran", &mut mat, &mut work,
            )
            .unwrap();
            for (a, b) in x_plan.iter().zip(&x_ref) {
                assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
            }
        }
        // Linear circuit at fixed companions: exactly one factorization.
        assert_eq!(plan.stats().factorizations, 1);
    }

    #[test]
    fn singular_system_reports_same_error() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        // A current source into a node with no DC path anywhere: singular.
        ckt.isource("I1", Circuit::GND, a, Waveform::dc(1e-3));
        let layout = MnaLayout::new(&ckt);
        let opts = NewtonOpts::default();
        let ctx = SolveContext {
            time: 0.0,
            source_scale: 1.0,
            caps: None,
            inds: None,
            gshunt: 0.0,
        };
        let mut plan = PlanSolver::new(&ckt, &layout, PlanMode::Dc, DeviceEval::Exact);
        let mut x = vec![0.0; layout.size()];
        let got = plan.solve(&ckt, &layout, &mut x, ctx, &opts, "dc");
        let mut mat = DenseMatrix::zeros(layout.size());
        let mut work = Vec::new();
        let mut xr = vec![0.0; layout.size()];
        let want = mna::solve_newton(
            &ckt, &layout, &mut xr, ctx, &opts, "dc", &mut mat, &mut work,
        );
        match (got, want) {
            (Err(Error::SingularMatrix { row: a }), Err(Error::SingularMatrix { row: b })) => {
                assert_eq!(a, b)
            }
            other => panic!("expected matching singular errors, got {other:?}"),
        }
    }
}
