//! Compiled expression backend: [`Expr`] trees lowered once into a flat
//! register [`Program`] — a linear op array evaluated over a reusable
//! register file with no recursion and no per-row allocation.
//!
//! The tree-walking interpreters ([`Expr::eval`], [`Expr::eval_range`])
//! pay per-node dispatch, `Box` pointer chasing, a clone per `Col` /
//! `Const` leaf, and (for the derived operators `≠ ≥ >`) a per-row
//! clone-and-rebuild of whole subtrees. Inside a fused operator chain
//! those costs dominate per-row work (the U-relations observation: keep
//! the uncertain-data hot loop flat), so the query engines compile each
//! select/project/predicate stage once per chain and run the program
//! one op at a time over typed column lanes
//! ([`Program::eval_range_lanes`]); the per-row entry points
//! ([`Program::eval_range_into`]) are the scalar reference the lane
//! kernels are tested against.
//!
//! Ops address their operands *directly* ([`Src`]): a register for
//! compound sub-results, a tuple column, or a pooled constant — leaf
//! operands are read in place instead of being cloned into registers
//! (the interpreter clones both). A [`Op::CheckCol`] bounds probe is
//! emitted where the interpreter would have evaluated the column
//! reference, so `UnknownColumn` errors keep their exact position in
//! the error order.
//!
//! Both lowerings reuse the *same per-node combinators* as the
//! interpreters (`expr::range_*`, `Value` arithmetic), so compiled
//! results — values, sg-widening, the cross-type `Div` spans-zero
//! guard, and `EvalError` classification — are identical by
//! construction; the differential property suite
//! (`tests/compiled_exprs_props.rs`) pins it.
//!
//! Two lowering modes exist because the two semantics differ in control
//! flow, not just domain:
//!
//! * **Range** (Definition 9) is straight-line: every operand of every
//!   node is evaluated (`If` merges both branches), so the program is a
//!   pure dataflow op list.
//! * **Det** (Definition 4) short-circuits: `And`/`Or` skip their right
//!   operand and `If` evaluates only the taken branch, so the lowering
//!   emits explicit `Jump`/`JumpIfFalse`/`JumpIfTrue` ops. Skipping is
//!   semantically load-bearing — the skipped subexpression may error —
//!   which also rules out op-at-a-time batching for det programs.

use std::fmt;

use crate::error::EvalError;
use crate::expr::{
    self, range_add, range_and, range_div, range_eq, range_if_merge, range_leq, range_lt,
    range_mul, range_neg, range_not, range_or, range_sub, range_uncertain,
};
use crate::lane::{self, LaneSlice, LaneTag, Operand, ValueLane};
use crate::range::RangeValue;
use crate::value::Value;
use crate::Expr;

/// Register index into a program's register file.
pub type Reg = u32;

/// Which semantics a program was lowered for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Range-annotated semantics over `RangeValue` registers.
    Range,
    /// Deterministic semantics over `Value` registers.
    Det,
}

/// An op operand, addressed in place: a register holding a compound
/// sub-result, an input tuple column, or a pooled constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Src {
    Reg(Reg),
    Col(u32),
    Const(u32),
}

/// One flat instruction. `Range*` ops appear only in `Mode::Range`
/// programs, `Det*`/load/jump ops only in `Mode::Det` programs;
/// `CheckCol` is shared.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    /// Bounds-probe a column reference (`UnknownColumn` past the
    /// arity), emitted where the interpreter would have *evaluated* the
    /// reference — later ops then read the column in place.
    CheckCol {
        col: u32,
    },

    // ---- range mode (straight-line dataflow) ---------------------------
    RangeAnd {
        a: Src,
        b: Src,
        dst: Reg,
    },
    RangeOr {
        a: Src,
        b: Src,
        dst: Reg,
    },
    RangeNot {
        a: Src,
        dst: Reg,
    },
    RangeEq {
        a: Src,
        b: Src,
        dst: Reg,
    },
    RangeLeq {
        a: Src,
        b: Src,
        dst: Reg,
    },
    RangeLt {
        a: Src,
        b: Src,
        dst: Reg,
    },
    RangeAdd {
        a: Src,
        b: Src,
        dst: Reg,
    },
    RangeSub {
        a: Src,
        b: Src,
        dst: Reg,
    },
    RangeMul {
        a: Src,
        b: Src,
        dst: Reg,
    },
    RangeDiv {
        a: Src,
        b: Src,
        dst: Reg,
    },
    RangeNeg {
        a: Src,
        dst: Reg,
    },
    /// Validate that `src` is a boolean triple — emitted after an `If`
    /// condition so non-boolean conditions error *before* the branch
    /// bodies run, exactly like the interpreter.
    RangeCheckBool3 {
        src: Src,
    },
    /// Merge the (eagerly evaluated) branch results under the condition.
    RangeIfMerge {
        c: Src,
        t: Src,
        e: Src,
        dst: Reg,
    },
    RangeUncertain {
        l: Src,
        s: Src,
        u: Src,
        dst: Reg,
    },

    // ---- det mode (short-circuit control flow) -------------------------
    /// `dst ← tuple[col]` (an `If` branch must deposit into the shared
    /// destination register).
    LoadCol {
        col: u32,
        dst: Reg,
    },
    /// `dst ← consts[idx]`.
    LoadConst {
        idx: u32,
        dst: Reg,
    },
    DetAdd {
        a: Src,
        b: Src,
        dst: Reg,
    },
    DetSub {
        a: Src,
        b: Src,
        dst: Reg,
    },
    DetMul {
        a: Src,
        b: Src,
        dst: Reg,
    },
    DetDiv {
        a: Src,
        b: Src,
        dst: Reg,
    },
    DetNeg {
        a: Src,
        dst: Reg,
    },
    /// `dst ← Bool(value_eq(a, b))`.
    DetEq {
        a: Src,
        b: Src,
        dst: Reg,
    },
    /// `dst ← Bool(a ≤ b ∨ value_eq(a, b))` — the interpreter's `leq`.
    DetLeq {
        a: Src,
        b: Src,
        dst: Reg,
    },
    /// `dst ← Bool(a < b ∧ ¬value_eq(a, b))` — the interpreter's `lt`.
    DetLt {
        a: Src,
        b: Src,
        dst: Reg,
    },
    /// `dst ← Bool(¬as_bool(a))`.
    DetNot {
        a: Src,
        dst: Reg,
    },
    /// `dst ← Bool(as_bool(src))` — materializes an `And`/`Or` operand.
    DetAsBool {
        src: Src,
        dst: Reg,
    },
    Jump {
        to: u32,
    },
    /// `as_bool(src)?`; jump when false.
    JumpIfFalse {
        src: Src,
        to: u32,
    },
    /// `as_bool(src)?`; jump when true.
    JumpIfTrue {
        src: Src,
        to: u32,
    },
}

/// A compiled expression (or expression list): flat ops, a constant
/// pool, and one output location per compiled expression. Programs are
/// immutable and `Sync` — compile once per chain, share across workers,
/// and give each worker its own register file.
///
/// Every op carries a *span* ([`Program::spans`]): the preorder index
/// of the source [`Expr`] node that emitted it, global across the
/// compiled expression list. The static verifier
/// ([`crate::verify`]) leans on spans to reconstruct which ops belong
/// to which subtree (jump targets are uniquely determined by the
/// emitting node's op interval) and to name the offending source node
/// in diagnostics.
#[must_use = "a compiled program does nothing until evaluated"]
#[derive(Debug, Clone)]
pub struct Program {
    pub(crate) mode: Mode,
    pub(crate) ops: Vec<Op>,
    /// Constant pool for `Mode::Det` (and the source of `consts_range`).
    pub(crate) consts: Vec<Value>,
    /// The same pool pre-lifted to certain ranges for `Mode::Range`.
    pub(crate) consts_range: Vec<RangeValue>,
    pub(crate) nregs: usize,
    pub(crate) outputs: Vec<Src>,
    /// Per-op source node: `spans[i]` is the global preorder id of the
    /// `Expr` node that emitted op `i`.
    pub(crate) spans: Vec<u32>,
    /// The source expressions, kept for diagnostics and re-verification.
    pub(crate) srcs: Vec<Expr>,
    /// `node_offsets[k]` is the global preorder id of `srcs[k]`'s root;
    /// one sentinel entry past the end holds the total node count.
    pub(crate) node_offsets: Vec<u32>,
}

impl Program {
    /// Lower one expression for range-annotated evaluation.
    pub fn compile_range(e: &Expr) -> Program {
        Self::compile_range_many(std::slice::from_ref(e))
    }

    /// Lower a list of expressions (a projection) into one program with
    /// one output each; expressions evaluate in list order, so the
    /// first error wins exactly as in per-expression interpretation.
    pub fn compile_range_many(exprs: &[Expr]) -> Program {
        Self::lower_many(Mode::Range, exprs).expect_well_formed()
    }

    /// Lower one expression for deterministic evaluation.
    pub fn compile_det(e: &Expr) -> Program {
        Self::compile_det_many(std::slice::from_ref(e))
    }

    /// Deterministic analog of [`Program::compile_range_many`].
    pub fn compile_det_many(exprs: &[Expr]) -> Program {
        Self::lower_many(Mode::Det, exprs).expect_well_formed()
    }

    /// Raw lowering without the Tier A gate — the verifier's
    /// translation-validation pass re-lowers a program's sources through
    /// this to compare op-for-op (it must not recurse into
    /// verification).
    fn lower_many(mode: Mode, exprs: &[Expr]) -> Program {
        let mut l = Lowerer::new(mode);
        let mut nid = 0u32;
        let outputs = exprs
            .iter()
            .map(|e| {
                let s = match mode {
                    Mode::Range => l.lower_range_value(e, nid),
                    Mode::Det => l.lower_det_value(e, nid),
                };
                nid += e.node_count();
                s
            })
            .collect();
        l.finish(outputs, exprs)
    }

    /// Re-lower this program's sources from scratch (unverified); used
    /// by [`crate::verify`]'s translation validation.
    pub(crate) fn relower(&self) -> Program {
        Self::lower_many(self.mode, &self.srcs)
    }

    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Number of registers an evaluation needs.
    pub fn nregs(&self) -> usize {
        self.nregs
    }

    /// Number of compiled expressions (outputs).
    pub fn arity(&self) -> usize {
        self.outputs.len()
    }

    /// Number of ops in the program (disassembly length).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The expressions this program was lowered from, one per output.
    pub fn sources(&self) -> &[Expr] {
        &self.srcs
    }

    // ---- static verification --------------------------------------------

    /// Tier A: the structural dataflow verifier ([`crate::verify`]).
    /// Runs unconditionally at compile time via
    /// [`Program::expect_well_formed`]; a freshly lowered program that
    /// fails it is a lowerer bug.
    pub fn verify(&self) -> Result<(), crate::verify::VerifyError> {
        crate::verify::check_structure(self)
    }

    /// Tier A + Tier B: structural verification followed by abstract
    /// interpretation over the type × interval lattice. Returns the
    /// advisory lints Tier B collected (a sound program may still carry
    /// lints, e.g. statically-certain errors in reachable code).
    pub fn verify_full(
        &self,
    ) -> Result<Vec<crate::verify::ProgramLint>, crate::verify::VerifyError> {
        crate::verify::check_structure(self)?;
        crate::verify::check_abstract(self)
    }

    /// The source `Expr` node behind global preorder id `nid`, if any.
    pub(crate) fn node_expr(&self, nid: u32) -> Option<&Expr> {
        let k = self.node_offsets.partition_point(|&off| off <= nid).checked_sub(1)?;
        let root = self.srcs.get(k)?;
        root.preorder_node((nid - self.node_offsets[k]) as usize)
    }

    /// Panic (lowerer bug) if Tier A rejects this freshly built program.
    fn expect_well_formed(self) -> Program {
        if let Err(e) = self.verify() {
            panic!("lowerer produced a malformed program: {e}\n{self}");
        }
        self
    }

    // ---- per-row range evaluation ---------------------------------------

    /// Grow `regs` to this program's register count (reusing the buffer
    /// across rows and across programs of different sizes).
    pub fn prepare_range_regs(&self, regs: &mut Vec<RangeValue>) {
        if regs.len() < self.nregs {
            regs.resize(self.nregs, RangeValue::certain(Value::Null));
        }
    }

    #[inline]
    fn rsrc<'r>(
        &'r self,
        s: Src,
        tuple: &'r [RangeValue],
        regs: &'r [RangeValue],
    ) -> &'r RangeValue {
        match s {
            Src::Reg(r) => &regs[r as usize],
            // in bounds: a CheckCol precedes every Col operand
            Src::Col(c) => &tuple[c as usize],
            Src::Const(i) => &self.consts_range[i as usize],
        }
    }

    /// Take ownership of an operand: move out of a register, clone a
    /// column/constant (what the interpreter's leaf evaluation does).
    #[inline]
    fn rtake(&self, s: Src, tuple: &[RangeValue], regs: &mut [RangeValue]) -> RangeValue {
        match s {
            Src::Reg(r) => {
                std::mem::replace(&mut regs[r as usize], RangeValue::certain(Value::Null))
            }
            Src::Col(c) => tuple[c as usize].clone(),
            Src::Const(i) => self.consts_range[i as usize].clone(),
        }
    }

    /// Run the program over one range-annotated tuple; `i`-th result
    /// readable via [`Program::range_output`].
    pub fn eval_range_into(
        &self,
        tuple: &[RangeValue],
        regs: &mut [RangeValue],
    ) -> Result<(), EvalError> {
        debug_assert_eq!(self.mode, Mode::Range, "range evaluation of a det program");
        for op in &self.ops {
            match op {
                Op::CheckCol { col } => {
                    let c = *col as usize;
                    if c >= tuple.len() {
                        return Err(EvalError::UnknownColumn(c));
                    }
                }
                Op::RangeAnd { a, b, dst } => {
                    let v = range_and(self.rsrc(*a, tuple, regs), self.rsrc(*b, tuple, regs))?;
                    regs[*dst as usize] = v;
                }
                Op::RangeOr { a, b, dst } => {
                    let v = range_or(self.rsrc(*a, tuple, regs), self.rsrc(*b, tuple, regs))?;
                    regs[*dst as usize] = v;
                }
                Op::RangeNot { a, dst } => {
                    let v = range_not(self.rsrc(*a, tuple, regs))?;
                    regs[*dst as usize] = v;
                }
                Op::RangeEq { a, b, dst } => {
                    let v = range_eq(self.rsrc(*a, tuple, regs), self.rsrc(*b, tuple, regs));
                    regs[*dst as usize] = v;
                }
                Op::RangeLeq { a, b, dst } => {
                    let v = range_leq(self.rsrc(*a, tuple, regs), self.rsrc(*b, tuple, regs));
                    regs[*dst as usize] = v;
                }
                Op::RangeLt { a, b, dst } => {
                    let v = range_lt(self.rsrc(*a, tuple, regs), self.rsrc(*b, tuple, regs));
                    regs[*dst as usize] = v;
                }
                Op::RangeAdd { a, b, dst } => {
                    let v = range_add(self.rsrc(*a, tuple, regs), self.rsrc(*b, tuple, regs))?;
                    regs[*dst as usize] = v;
                }
                Op::RangeSub { a, b, dst } => {
                    let v = range_sub(self.rsrc(*a, tuple, regs), self.rsrc(*b, tuple, regs))?;
                    regs[*dst as usize] = v;
                }
                Op::RangeMul { a, b, dst } => {
                    let v = range_mul(self.rsrc(*a, tuple, regs), self.rsrc(*b, tuple, regs))?;
                    regs[*dst as usize] = v;
                }
                Op::RangeDiv { a, b, dst } => {
                    let v = range_div(self.rsrc(*a, tuple, regs), self.rsrc(*b, tuple, regs))?;
                    regs[*dst as usize] = v;
                }
                Op::RangeNeg { a, dst } => {
                    let v = range_neg(self.rsrc(*a, tuple, regs))?;
                    regs[*dst as usize] = v;
                }
                Op::RangeCheckBool3 { src } => {
                    self.rsrc(*src, tuple, regs).as_bool3()?;
                }
                Op::RangeIfMerge { c, t, e, dst } => {
                    let tv = self.rtake(*t, tuple, regs);
                    let ev = self.rtake(*e, tuple, regs);
                    let v = range_if_merge(self.rsrc(*c, tuple, regs), tv, ev)?;
                    regs[*dst as usize] = v;
                }
                Op::RangeUncertain { l, s, u, dst } => {
                    let v = range_uncertain(
                        self.rsrc(*l, tuple, regs),
                        self.rsrc(*s, tuple, regs),
                        self.rsrc(*u, tuple, regs),
                    )?;
                    regs[*dst as usize] = v;
                }
                _ => unreachable!("det op in a range program"),
            }
        }
        Ok(())
    }

    /// Read the `i`-th output after [`Program::eval_range_into`].
    #[inline]
    pub fn range_output<'r>(
        &'r self,
        i: usize,
        tuple: &'r [RangeValue],
        regs: &'r [RangeValue],
    ) -> &'r RangeValue {
        self.rsrc(self.outputs[i], tuple, regs)
    }

    /// Single-output range evaluation.
    pub fn eval_range(
        &self,
        tuple: &[RangeValue],
        regs: &mut Vec<RangeValue>,
    ) -> Result<RangeValue, EvalError> {
        self.prepare_range_regs(regs);
        self.eval_range_into(tuple, regs)?;
        Ok(self.range_output(0, tuple, regs).clone())
    }

    /// Single-output range predicate evaluation: boolean triple.
    pub fn eval_range_bool3(
        &self,
        tuple: &[RangeValue],
        regs: &mut Vec<RangeValue>,
    ) -> Result<(bool, bool, bool), EvalError> {
        self.prepare_range_regs(regs);
        self.eval_range_into(tuple, regs)?;
        self.range_output(0, tuple, regs).as_bool3()
    }

    // ---- per-row det evaluation -----------------------------------------

    /// Grow `regs` to this program's register count.
    pub fn prepare_det_regs(&self, regs: &mut Vec<Value>) {
        if regs.len() < self.nregs {
            regs.resize(self.nregs, Value::Null);
        }
    }

    #[inline]
    fn dsrc<'r>(&'r self, s: Src, tuple: &'r [Value], regs: &'r [Value]) -> &'r Value {
        match s {
            Src::Reg(r) => &regs[r as usize],
            Src::Col(c) => &tuple[c as usize],
            Src::Const(i) => &self.consts[i as usize],
        }
    }

    /// Run the program over one deterministic tuple (with short-circuit
    /// jumps); `i`-th result readable via [`Program::det_output`].
    pub fn eval_det_into(&self, tuple: &[Value], regs: &mut [Value]) -> Result<(), EvalError> {
        debug_assert_eq!(self.mode, Mode::Det, "det evaluation of a range program");
        let mut pc = 0usize;
        while pc < self.ops.len() {
            match &self.ops[pc] {
                Op::CheckCol { col } => {
                    let c = *col as usize;
                    if c >= tuple.len() {
                        return Err(EvalError::UnknownColumn(c));
                    }
                }
                Op::LoadCol { col, dst } => {
                    let c = *col as usize;
                    regs[*dst as usize] =
                        tuple.get(c).cloned().ok_or(EvalError::UnknownColumn(c))?;
                }
                Op::LoadConst { idx, dst } => {
                    regs[*dst as usize] = self.consts[*idx as usize].clone();
                }
                Op::DetAdd { a, b, dst } => {
                    let v = self.dsrc(*a, tuple, regs).add(self.dsrc(*b, tuple, regs))?;
                    regs[*dst as usize] = v;
                }
                Op::DetSub { a, b, dst } => {
                    let v = self.dsrc(*a, tuple, regs).sub(self.dsrc(*b, tuple, regs))?;
                    regs[*dst as usize] = v;
                }
                Op::DetMul { a, b, dst } => {
                    let v = self.dsrc(*a, tuple, regs).mul(self.dsrc(*b, tuple, regs))?;
                    regs[*dst as usize] = v;
                }
                Op::DetDiv { a, b, dst } => {
                    let v = self.dsrc(*a, tuple, regs).div(self.dsrc(*b, tuple, regs))?;
                    regs[*dst as usize] = v;
                }
                Op::DetNeg { a, dst } => {
                    let v = self.dsrc(*a, tuple, regs).neg()?;
                    regs[*dst as usize] = v;
                }
                Op::DetEq { a, b, dst } => {
                    let v = self.dsrc(*a, tuple, regs).value_eq(self.dsrc(*b, tuple, regs));
                    regs[*dst as usize] = Value::Bool(v);
                }
                Op::DetLeq { a, b, dst } => {
                    let v = expr::leq(self.dsrc(*a, tuple, regs), self.dsrc(*b, tuple, regs));
                    regs[*dst as usize] = Value::Bool(v);
                }
                Op::DetLt { a, b, dst } => {
                    let v = expr::lt(self.dsrc(*a, tuple, regs), self.dsrc(*b, tuple, regs));
                    regs[*dst as usize] = Value::Bool(v);
                }
                Op::DetNot { a, dst } => {
                    let v = !self.dsrc(*a, tuple, regs).as_bool()?;
                    regs[*dst as usize] = Value::Bool(v);
                }
                Op::DetAsBool { src, dst } => {
                    let v = self.dsrc(*src, tuple, regs).as_bool()?;
                    regs[*dst as usize] = Value::Bool(v);
                }
                Op::Jump { to } => {
                    pc = *to as usize;
                    continue;
                }
                Op::JumpIfFalse { src, to } => {
                    if !self.dsrc(*src, tuple, regs).as_bool()? {
                        pc = *to as usize;
                        continue;
                    }
                }
                Op::JumpIfTrue { src, to } => {
                    if self.dsrc(*src, tuple, regs).as_bool()? {
                        pc = *to as usize;
                        continue;
                    }
                }
                _ => unreachable!("range op in a det program"),
            }
            pc += 1;
        }
        Ok(())
    }

    /// Read the `i`-th output after [`Program::eval_det_into`].
    #[inline]
    pub fn det_output<'r>(&'r self, i: usize, tuple: &'r [Value], regs: &'r [Value]) -> &'r Value {
        self.dsrc(self.outputs[i], tuple, regs)
    }

    /// Single-output deterministic evaluation.
    pub fn eval_det(&self, tuple: &[Value], regs: &mut Vec<Value>) -> Result<Value, EvalError> {
        self.prepare_det_regs(regs);
        self.eval_det_into(tuple, regs)?;
        Ok(self.det_output(0, tuple, regs).clone())
    }

    /// Single-output deterministic predicate evaluation.
    pub fn eval_det_bool(&self, tuple: &[Value], regs: &mut Vec<Value>) -> Result<bool, EvalError> {
        self.prepare_det_regs(regs);
        self.eval_det_into(tuple, regs)?;
        self.det_output(0, tuple, regs).as_bool()
    }

    // ---- columnar (lane) range evaluation -------------------------------

    /// Evaluate the program over a whole batch of rows held as typed
    /// value lanes, **one op at a time over every row** — register
    /// *lanes* instead of a register file. Each op first tries its
    /// typed vector kernel ([`crate::lane`]) — a tight loop over
    /// contiguous `i64`/`f64`/`bool` component arrays with no per-cell
    /// enum dispatch — and **demotes** to the shared `range_*`
    /// combinators (into a boxed lane) whenever operand shapes or a
    /// produced value leave the homogeneous type lattice. Kernels are
    /// exact refinements of the combinators, so every row's result —
    /// value or error — is what [`Program::eval_range_into`] returns
    /// for that row alone.
    ///
    /// Range mode only: det programs short-circuit via jumps, which is
    /// per-row control flow. `cols` are the input attribute lanes (each
    /// of length `nrows`). A row that errors is *poisoned*: its error
    /// stays in the batch ([`LaneBatch::row_error`]) and later generic
    /// sweeps skip it (typed kernels may compute it — typed lanes
    /// always hold genuine domain values, so the extra work is
    /// harmless); callers carry poison across several program runs and
    /// report the earliest row's error. Outputs are read back via
    /// [`LaneBatch::output_lane`] and are valid at non-poisoned rows.
    ///
    /// `cancel` is checked between op sweeps, so a cancelled long batch
    /// stops within one op's row loop; a cancellation verdict poisons
    /// nothing — the batch is simply abandoned.
    pub fn eval_range_lanes(
        &self,
        cols: &[LaneSlice<'_>],
        nrows: usize,
        batch: &mut LaneBatch,
        cancel: Option<&crate::govern::CancelToken>,
    ) -> Result<(), crate::govern::ExecError> {
        assert_eq!(self.mode, Mode::Range, "lane evaluation requires a range program");
        debug_assert!(cols.iter().all(|c| c.len() == nrows));
        batch.reset(self);
        let LaneBatch { regs, consts, errs, demoted, kinds, poisoned } = batch;

        // A column reference past the arity poisons every row at its
        // `CheckCol` probe (the lowerer emits one before any read), but
        // later ops still sweep the batch — they read a stand-in `Null`
        // whose value is never used.
        let null = RangeValue::certain(Value::Null);

        // Resolve an operand: a lane, or a broadcast constant.
        macro_rules! arg {
            ($s:expr) => {
                match *$s {
                    Src::Reg(r) => Operand::Lane(regs[r as usize].as_slice()),
                    Src::Col(c) => {
                        cols.get(c as usize).map_or(Operand::Const(&null), |l| Operand::Lane(*l))
                    }
                    Src::Const(k) => Operand::Const(&self.consts_range[k as usize]),
                }
            };
        }
        // Kernel-or-demote for unary/binary ops. The computed lane is
        // bound *outside* the operand borrows, then stored: the lowerer
        // never reuses registers, so `dst` is distinct from operands.
        macro_rules! unary {
            ($a:expr, $dst:expr, $kind:expr, $kernel:expr, $generic:expr) => {{
                let out = {
                    let x = arg!($a);
                    match $kernel(x, nrows) {
                        Some(l) => l,
                        None => {
                            *demoted += 1;
                            *kinds |= kind_bit($kind);
                            sweep_rows(slots(errs, nrows), |i| $generic(&x.get(i)))
                        }
                    }
                };
                regs[*$dst as usize] = out;
            }};
        }
        macro_rules! binary {
            ($a:expr, $b:expr, $dst:expr, $kind:expr, $kernel:expr, $generic:expr) => {{
                let out = {
                    let (x, y) = (arg!($a), arg!($b));
                    match $kernel(x, y, nrows) {
                        Some(l) => l,
                        None => {
                            *demoted += 1;
                            *kinds |= kind_bit($kind);
                            sweep_rows(slots(errs, nrows), |i| $generic(&x.get(i), &y.get(i)))
                        }
                    }
                };
                regs[*$dst as usize] = out;
            }};
        }
        // A "kernel" that always demotes (division's spans-zero guard
        // stays scalar).
        fn never2(_a: Operand<'_>, _b: Operand<'_>, _n: usize) -> Option<ValueLane> {
            None
        }

        for op in &self.ops {
            if let Some(token) = cancel {
                token.check()?;
            }
            match op {
                Op::CheckCol { col } => {
                    // Lane rows share one arity, so the per-row bounds
                    // probe collapses to a single test.
                    let c = *col as usize;
                    if c >= cols.len() {
                        for e in slots(errs, nrows).iter_mut() {
                            if e.is_none() {
                                *e = Some(EvalError::UnknownColumn(c));
                            }
                        }
                    }
                }
                Op::RangeAnd { a, b, dst } => binary!(a, b, dst, "and", lane::k_and, range_and),
                Op::RangeOr { a, b, dst } => binary!(a, b, dst, "or", lane::k_or, range_or),
                Op::RangeNot { a, dst } => unary!(a, dst, "not", lane::k_not, range_not),
                Op::RangeEq { a, b, dst } => {
                    binary!(a, b, dst, "eq", lane::k_eq, |x, y| Ok(range_eq(x, y)))
                }
                Op::RangeLeq { a, b, dst } => {
                    binary!(a, b, dst, "leq", lane::k_leq, |x, y| Ok(range_leq(x, y)))
                }
                Op::RangeLt { a, b, dst } => {
                    binary!(a, b, dst, "lt", lane::k_lt, |x, y| Ok(range_lt(x, y)))
                }
                Op::RangeAdd { a, b, dst } => binary!(a, b, dst, "add", lane::k_add, range_add),
                Op::RangeSub { a, b, dst } => binary!(a, b, dst, "sub", lane::k_sub, range_sub),
                Op::RangeMul { a, b, dst } => binary!(a, b, dst, "mul", lane::k_mul, range_mul),
                Op::RangeDiv { a, b, dst } => binary!(a, b, dst, "div", never2, range_div),
                Op::RangeNeg { a, dst } => unary!(a, dst, "neg", lane::k_neg, range_neg),
                Op::RangeCheckBool3 { src } => {
                    let s = arg!(src);
                    // A Bool lane is a boolean triple by construction —
                    // the check that follows every `If` condition is
                    // free on the typed hot path.
                    if s.tag() != LaneTag::Bool {
                        for (i, e) in slots(errs, nrows).iter_mut().enumerate() {
                            if e.is_none() {
                                if let Err(err) = s.get(i).as_bool3() {
                                    *e = Some(err);
                                }
                            }
                        }
                    }
                }
                Op::RangeIfMerge { c, t, e, dst } => {
                    let out = {
                        let (cc, tt, ee) = (arg!(c), arg!(t), arg!(e));
                        let slots = slots(errs, nrows);
                        sweep_rows(slots, |i| range_if_merge(&cc.get(i), tt.get(i), ee.get(i)))
                    };
                    regs[*dst as usize] = out;
                }
                Op::RangeUncertain { l, s, u, dst } => {
                    let out = {
                        let (ll, ss, uu) = (arg!(l), arg!(s), arg!(u));
                        let slots = slots(errs, nrows);
                        sweep_rows(slots, |i| range_uncertain(&ll.get(i), &ss.get(i), &uu.get(i)))
                    };
                    regs[*dst as usize] = out;
                }
                _ => unreachable!("det op in a range program"),
            }
        }
        // A constant output is read back as a lane: the one place a
        // constant is splatted.
        for out in &self.outputs {
            if let Src::Const(k) = *out {
                consts[k as usize] = ValueLane::splat(&self.consts_range[k as usize], nrows);
            }
        }
        *poisoned = errs.iter().filter(|e| e.is_some()).count();
        Ok(())
    }
}

/// The poison slots of a batch, sized to its `nrows` the first time an
/// op may poison a row: a typed evaluation never writes them, and never
/// pays for them.
fn slots(errs: &mut Vec<Option<EvalError>>, nrows: usize) -> &mut [Option<EvalError>] {
    if errs.is_empty() {
        errs.resize(nrows, None);
    }
    errs
}

/// One generic sweep over a batch: `f` per live row, into a boxed lane.
/// A poisoned row, or one `f` fails on (which poisons it), gets a
/// `Null` placeholder — never read, the poison slot wins.
fn sweep_rows(
    errs: &mut [Option<EvalError>],
    f: impl Fn(usize) -> Result<RangeValue, EvalError>,
) -> ValueLane {
    let null = RangeValue::certain(Value::Null);
    let mut out = Vec::with_capacity(errs.len());
    for (i, e) in errs.iter_mut().enumerate() {
        if e.is_some() {
            out.push(null.clone());
            continue;
        }
        match f(i) {
            Ok(v) => out.push(v),
            Err(err) => {
                *e = Some(err);
                out.push(null.clone());
            }
        }
    }
    ValueLane::Boxed(out)
}

/// The kinds of op a lane evaluation runs a typed kernel for, in the
/// order [`OpKinds`] lists them.
const KINDS: [&str; 11] =
    ["and", "or", "not", "eq", "leq", "lt", "add", "sub", "mul", "div", "neg"];

/// The [`OpKinds`] bit of kind `name`.
fn kind_bit(name: &str) -> u16 {
    let i = KINDS.iter().position(|k| *k == name);
    debug_assert!(i.is_some(), "{name} is no op kind");
    i.map_or(0, |i| 1 << i)
}

/// A set of op kinds — the ones whose typed kernel demoted
/// ([`LaneBatch::demoted_kinds`]). `Display` lists their names
/// (`add,mul`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpKinds(u16);

impl OpKinds {
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The set as bits, for an atomic accumulator.
    pub fn bits(self) -> u16 {
        self.0
    }

    pub fn from_bits(bits: u16) -> OpKinds {
        OpKinds(bits)
    }
}

impl fmt::Display for OpKinds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names = KINDS.iter().filter(|&&k| self.0 & kind_bit(k) != 0);
        if let Some(k) = names.next() {
            f.write_str(k)?;
        }
        names.try_for_each(|k| write!(f, ",{k}"))
    }
}

/// Reusable scratch for [`Program::eval_range_lanes`]: one typed lane
/// per register, the constant outputs splatted to the batch length, and
/// the per-row poison slots (sized only when an op may poison a row).
#[derive(Default)]
pub struct LaneBatch {
    regs: Vec<ValueLane>,
    consts: Vec<ValueLane>,
    errs: Vec<Option<EvalError>>,
    demoted: usize,
    kinds: u16,
    poisoned: usize,
}

impl LaneBatch {
    /// Ready for an evaluation of `prog`: `O(registers + constants)`,
    /// whatever the batch length.
    fn reset(&mut self, prog: &Program) {
        self.regs.clear();
        self.regs.resize_with(prog.nregs, ValueLane::default);
        self.consts.clear();
        self.consts.resize_with(prog.consts_range.len(), ValueLane::default);
        self.errs.clear();
        self.demoted = 0;
        self.kinds = 0;
        self.poisoned = 0;
    }

    /// Ops of the last lane evaluation whose typed kernel demoted to
    /// the generic per-row combinator (boxed operands, `i64` overflow,
    /// NaN, division) — the silent cost a caller may want to count.
    pub fn demotions(&self) -> usize {
        self.demoted
    }

    /// The kinds of the ops [`LaneBatch::demotions`] counts.
    pub fn demoted_kinds(&self) -> OpKinds {
        OpKinds(self.kinds)
    }

    /// Rows the last lane evaluation poisoned ([`LaneBatch::row_error`]
    /// is `Some`). 0 — almost always — lets a caller skip the per-row
    /// poison checks.
    pub fn poisoned(&self) -> usize {
        self.poisoned
    }

    /// The `out`-th output as a borrowed lane (the input lanes are
    /// needed because outputs may address input columns in place);
    /// valid at non-poisoned rows after a lane evaluation.
    pub fn output_lane<'r>(
        &'r self,
        prog: &Program,
        out: usize,
        cols: &[LaneSlice<'r>],
    ) -> LaneSlice<'r> {
        match prog.outputs[out] {
            Src::Reg(r) => self.regs[r as usize].as_slice(),
            Src::Col(c) => cols[c as usize],
            Src::Const(k) => self.consts[k as usize].as_slice(),
        }
    }

    /// The poison slot of row `i` after a lane evaluation (`None`: the
    /// row is clean).
    pub fn row_error(&self, i: usize) -> Option<&EvalError> {
        self.errs.get(i).and_then(Option::as_ref)
    }
}

/// `Display` is a disassembly listing (one op per line), mainly for
/// docs and debugging.
impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; {:?} program, {} regs, outputs {:?}", self.mode, self.nregs, self.outputs)?;
        for (i, op) in self.ops.iter().enumerate() {
            writeln!(f, "{i:4}: {op:?}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

struct Lowerer {
    mode: Mode,
    ops: Vec<Op>,
    /// One entry per op: the global preorder id of the emitting node.
    spans: Vec<u32>,
    consts: Vec<Value>,
    next: u32,
}

/// Global preorder ids of a node's children: the first child is the
/// next preorder slot, each later child starts past its predecessor's
/// subtree. Works for any child the lowering visits in any order —
/// ids are *structural*, independent of visit order (det `Uncertain`
/// skips two subtrees, `Geq`/`Gt` lower right-first).
fn child_nids(e: &Expr, nid: u32) -> [u32; 3] {
    let [c0, c1, _] = e.children();
    let n0 = nid + 1;
    let n1 = n0 + c0.map_or(0, Expr::node_count);
    let n2 = n1 + c1.map_or(0, Expr::node_count);
    [n0, n1, n2]
}

impl Lowerer {
    fn new(mode: Mode) -> Self {
        Lowerer { mode, ops: Vec::new(), spans: Vec::new(), consts: Vec::new(), next: 0 }
    }

    fn reg(&mut self) -> Reg {
        let r = self.next;
        self.next += 1;
        r
    }

    fn konst(&mut self, v: &Value) -> u32 {
        match self.consts.iter().position(|c| c == v) {
            Some(i) => i as u32,
            None => {
                self.consts.push(v.clone());
                (self.consts.len() - 1) as u32
            }
        }
    }

    /// Emit one op attributed to source node `nid`.
    fn emit(&mut self, nid: u32, op: Op) {
        self.ops.push(op);
        self.spans.push(nid);
    }

    /// Emit a placeholder jump; returns its op index for patching.
    fn emit_jump(&mut self, nid: u32, op: Op) -> usize {
        self.emit(nid, op);
        self.ops.len() - 1
    }

    fn patch_jump(&mut self, at: usize) {
        let to = self.ops.len() as u32;
        match &mut self.ops[at] {
            Op::Jump { to: t } | Op::JumpIfFalse { to: t, .. } | Op::JumpIfTrue { to: t, .. } => {
                *t = to
            }
            _ => unreachable!("patching a non-jump"),
        }
    }

    fn finish(self, outputs: Vec<Src>, srcs: &[Expr]) -> Program {
        let consts_range = self.consts.iter().map(|v| RangeValue::certain(v.clone())).collect();
        let mut node_offsets = Vec::with_capacity(srcs.len() + 1);
        let mut off = 0u32;
        for e in srcs {
            node_offsets.push(off);
            off += e.node_count();
        }
        node_offsets.push(off);
        debug_assert_eq!(self.ops.len(), self.spans.len());
        Program {
            mode: self.mode,
            ops: self.ops,
            consts: self.consts,
            consts_range,
            nregs: self.next as usize,
            outputs,
            spans: self.spans,
            srcs: srcs.to_vec(),
            node_offsets,
        }
    }

    // ---- range lowering (straight-line) ---------------------------------

    /// Lower an expression, returning where its value will live. Leaves
    /// are addressed in place (a `CheckCol` keeps the bounds error at
    /// the position the interpreter would have raised it).
    fn lower_range_value(&mut self, e: &Expr, nid: u32) -> Src {
        let [na, nb, nc] = child_nids(e, nid);
        match e {
            Expr::Col(i) => {
                self.emit(nid, Op::CheckCol { col: *i as u32 });
                Src::Col(*i as u32)
            }
            Expr::Const(v) => Src::Const(self.konst(v)),
            Expr::And(a, b) => {
                self.range_bin((a, na), (b, nb), nid, |a, b, dst| Op::RangeAnd { a, b, dst })
            }
            Expr::Or(a, b) => {
                self.range_bin((a, na), (b, nb), nid, |a, b, dst| Op::RangeOr { a, b, dst })
            }
            Expr::Not(a) => {
                let ra = self.lower_range_value(a, na);
                let dst = self.reg();
                self.emit(nid, Op::RangeNot { a: ra, dst });
                Src::Reg(dst)
            }
            Expr::Eq(a, b) => {
                self.range_bin((a, na), (b, nb), nid, |a, b, dst| Op::RangeEq { a, b, dst })
            }
            Expr::Neq(a, b) => {
                // Eq then Not — the interpreter's derivation, without
                // its per-row subtree clone.
                let eq =
                    self.range_bin((a, na), (b, nb), nid, |a, b, dst| Op::RangeEq { a, b, dst });
                let dst = self.reg();
                self.emit(nid, Op::RangeNot { a: eq, dst });
                Src::Reg(dst)
            }
            Expr::Leq(a, b) => {
                self.range_bin((a, na), (b, nb), nid, |a, b, dst| Op::RangeLeq { a, b, dst })
            }
            Expr::Lt(a, b) => {
                self.range_bin((a, na), (b, nb), nid, |a, b, dst| Op::RangeLt { a, b, dst })
            }
            // Derived comparisons: swapped operator, so the *syntactic
            // right* operand lowers (and therefore evaluates) first —
            // matching the interpreter's operand order for identical
            // error classification.
            Expr::Geq(a, b) => {
                self.range_bin((b, nb), (a, na), nid, |b, a, dst| Op::RangeLeq { a: b, b: a, dst })
            }
            Expr::Gt(a, b) => {
                self.range_bin((b, nb), (a, na), nid, |b, a, dst| Op::RangeLt { a: b, b: a, dst })
            }
            Expr::Add(a, b) => {
                self.range_bin((a, na), (b, nb), nid, |a, b, dst| Op::RangeAdd { a, b, dst })
            }
            Expr::Sub(a, b) => {
                self.range_bin((a, na), (b, nb), nid, |a, b, dst| Op::RangeSub { a, b, dst })
            }
            Expr::Mul(a, b) => {
                self.range_bin((a, na), (b, nb), nid, |a, b, dst| Op::RangeMul { a, b, dst })
            }
            Expr::Div(a, b) => {
                self.range_bin((a, na), (b, nb), nid, |a, b, dst| Op::RangeDiv { a, b, dst })
            }
            Expr::Neg(a) => {
                let ra = self.lower_range_value(a, na);
                let dst = self.reg();
                self.emit(nid, Op::RangeNeg { a: ra, dst });
                Src::Reg(dst)
            }
            Expr::If(c, t, e2) => {
                let rc = self.lower_range_value(c, na);
                self.emit(nid, Op::RangeCheckBool3 { src: rc });
                let rt = self.lower_range_value(t, nb);
                let re = self.lower_range_value(e2, nc);
                let dst = self.reg();
                self.emit(nid, Op::RangeIfMerge { c: rc, t: rt, e: re, dst });
                Src::Reg(dst)
            }
            Expr::Uncertain(l, s, u) => {
                let rl = self.lower_range_value(l, na);
                let rs = self.lower_range_value(s, nb);
                let ru = self.lower_range_value(u, nc);
                let dst = self.reg();
                self.emit(nid, Op::RangeUncertain { l: rl, s: rs, u: ru, dst });
                Src::Reg(dst)
            }
        }
    }

    fn range_bin(
        &mut self,
        a: (&Expr, u32),
        b: (&Expr, u32),
        nid: u32,
        mk: impl Fn(Src, Src, Reg) -> Op,
    ) -> Src {
        let ra = self.lower_range_value(a.0, a.1);
        let rb = self.lower_range_value(b.0, b.1);
        let dst = self.reg();
        self.emit(nid, mk(ra, rb, dst));
        Src::Reg(dst)
    }

    // ---- det lowering (short-circuit jumps) -----------------------------

    fn lower_det_value(&mut self, e: &Expr, nid: u32) -> Src {
        match e {
            Expr::Col(i) => {
                self.emit(nid, Op::CheckCol { col: *i as u32 });
                Src::Col(*i as u32)
            }
            Expr::Const(v) => Src::Const(self.konst(v)),
            _ => {
                let dst = self.reg();
                self.lower_det_into(e, nid, dst);
                Src::Reg(dst)
            }
        }
    }

    fn det_bin(
        &mut self,
        a: (&Expr, u32),
        b: (&Expr, u32),
        nid: u32,
        dst: Reg,
        mk: impl Fn(Src, Src, Reg) -> Op,
    ) {
        let ra = self.lower_det_value(a.0, a.1);
        let rb = self.lower_det_value(b.0, b.1);
        self.emit(nid, mk(ra, rb, dst));
    }

    /// Lower an expression so its value lands in `dst` (needed by `If`
    /// branches, which must deposit into a shared register).
    fn lower_det_into(&mut self, e: &Expr, nid: u32, dst: Reg) {
        let [na, nb, nc] = child_nids(e, nid);
        match e {
            Expr::Col(i) => self.emit(nid, Op::LoadCol { col: *i as u32, dst }),
            Expr::Const(v) => {
                let idx = self.konst(v);
                self.emit(nid, Op::LoadConst { idx, dst });
            }
            Expr::And(a, b) => {
                // dst ← a; if !dst skip b; dst ← b — Rust's `&&` in the
                // interpreter, including the skipped operand's skipped
                // errors.
                let ra = self.lower_det_value(a, na);
                self.emit(nid, Op::DetAsBool { src: ra, dst });
                let j = self.emit_jump(nid, Op::JumpIfFalse { src: Src::Reg(dst), to: u32::MAX });
                let rb = self.lower_det_value(b, nb);
                self.emit(nid, Op::DetAsBool { src: rb, dst });
                self.patch_jump(j);
            }
            Expr::Or(a, b) => {
                let ra = self.lower_det_value(a, na);
                self.emit(nid, Op::DetAsBool { src: ra, dst });
                let j = self.emit_jump(nid, Op::JumpIfTrue { src: Src::Reg(dst), to: u32::MAX });
                let rb = self.lower_det_value(b, nb);
                self.emit(nid, Op::DetAsBool { src: rb, dst });
                self.patch_jump(j);
            }
            Expr::Not(a) => {
                let ra = self.lower_det_value(a, na);
                self.emit(nid, Op::DetNot { a: ra, dst });
            }
            Expr::Eq(a, b) => {
                self.det_bin((a, na), (b, nb), nid, dst, |a, b, dst| Op::DetEq { a, b, dst })
            }
            Expr::Neq(a, b) => {
                let ra = self.lower_det_value(a, na);
                let rb = self.lower_det_value(b, nb);
                let r = self.reg();
                self.emit(nid, Op::DetEq { a: ra, b: rb, dst: r });
                self.emit(nid, Op::DetNot { a: Src::Reg(r), dst });
            }
            Expr::Leq(a, b) => {
                self.det_bin((a, na), (b, nb), nid, dst, |a, b, dst| Op::DetLeq { a, b, dst })
            }
            Expr::Lt(a, b) => {
                self.det_bin((a, na), (b, nb), nid, dst, |a, b, dst| Op::DetLt { a, b, dst })
            }
            // Det `x ≥ y` is `leq(y, x)` — operands still evaluate in
            // syntactic order (the interpreter evaluates both up front).
            Expr::Geq(a, b) => {
                self.det_bin((a, na), (b, nb), nid, dst, |a, b, dst| Op::DetLeq { a: b, b: a, dst })
            }
            Expr::Gt(a, b) => {
                self.det_bin((a, na), (b, nb), nid, dst, |a, b, dst| Op::DetLt { a: b, b: a, dst })
            }
            Expr::Add(a, b) => {
                self.det_bin((a, na), (b, nb), nid, dst, |a, b, dst| Op::DetAdd { a, b, dst })
            }
            Expr::Sub(a, b) => {
                self.det_bin((a, na), (b, nb), nid, dst, |a, b, dst| Op::DetSub { a, b, dst })
            }
            Expr::Mul(a, b) => {
                self.det_bin((a, na), (b, nb), nid, dst, |a, b, dst| Op::DetMul { a, b, dst })
            }
            Expr::Div(a, b) => {
                self.det_bin((a, na), (b, nb), nid, dst, |a, b, dst| Op::DetDiv { a, b, dst })
            }
            Expr::Neg(a) => {
                let ra = self.lower_det_value(a, na);
                self.emit(nid, Op::DetNeg { a: ra, dst });
            }
            Expr::If(c, t, e2) => {
                let rc = self.lower_det_value(c, na);
                let jelse = self.emit_jump(nid, Op::JumpIfFalse { src: rc, to: u32::MAX });
                self.lower_det_into(t, nb, dst);
                let jend = self.emit_jump(nid, Op::Jump { to: u32::MAX });
                self.patch_jump(jelse);
                self.lower_det_into(e2, nc, dst);
                self.patch_jump(jend);
            }
            // Deterministic engines see only the selected guess.
            Expr::Uncertain(_, s, _) => self.lower_det_into(s, nb, dst),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::{col, lit};

    fn rv(lb: i64, sg: i64, ub: i64) -> RangeValue {
        RangeValue::range(lb, sg, ub)
    }

    /// A grab-bag of expressions covering every operator.
    fn exprs() -> Vec<Expr> {
        vec![
            col(0).add(col(1)),
            col(0).sub(col(1)).mul(col(0)),
            col(0).div(col(1)),
            col(0).neg(),
            col(0).leq(col(1)),
            col(0).lt(lit(2i64)),
            col(0).geq(col(1)),
            col(0).gt(col(1)),
            col(0).eq(col(1)),
            col(0).neq(col(1)),
            col(0).leq(col(1)).and(col(0).geq(lit(0i64))),
            col(0).leq(col(1)).or(col(0).geq(lit(3i64))),
            col(0).lt(lit(5i64)).not(),
            Expr::if_then_else(col(0).leq(col(1)), col(0).add(lit(1i64)), col(1)),
            Expr::if_then_else(col(0).leq(col(1)), col(0), lit(9i64)),
            Expr::make_uncertain(col(0), col(1), col(0).add(col(1))),
            Expr::conj(vec![col(0).leq(lit(9i64)), col(1).geq(lit(-9i64))]),
            col(0),
            lit(42i64),
        ]
    }

    #[test]
    fn compiled_range_matches_interpreter() {
        let tuples = [
            vec![rv(1, 2, 3), rv(0, 0, 5)],
            vec![rv(-3, -1, 0), rv(2, 2, 2)],
            vec![rv(1, 1, 1), rv(1, 1, 1)],
            vec![
                RangeValue::new(Value::Int(1), Value::Int(1), Value::float(1.0)).unwrap(),
                RangeValue::new(Value::Int(0), Value::float(0.5), Value::Int(2)).unwrap(),
            ],
        ];
        let mut regs = Vec::new();
        for e in exprs() {
            let p = Program::compile_range(&e);
            for t in &tuples {
                let interp = e.eval_range(t);
                let compiled = p.eval_range(t, &mut regs);
                assert_eq!(interp, compiled, "range mismatch for {e} on {t:?}");
            }
        }
    }

    #[test]
    fn compiled_det_matches_interpreter() {
        let tuples = [
            vec![Value::Int(1), Value::Int(4)],
            vec![Value::Int(-2), Value::float(1.5)],
            vec![Value::float(2.0), Value::Int(2)],
            vec![Value::Int(0), Value::Int(0)],
        ];
        let mut regs = Vec::new();
        for e in exprs() {
            let p = Program::compile_det(&e);
            for t in &tuples {
                let interp = e.eval(t);
                let compiled = p.eval_det(t, &mut regs);
                assert_eq!(interp, compiled, "det mismatch for {e} on {t:?}");
            }
        }
    }

    /// Det short-circuit is preserved: the skipped operand's error never
    /// surfaces, exactly like the interpreter.
    #[test]
    fn det_short_circuit_skips_errors() {
        let mut regs = Vec::new();
        // false && (1/0): interpreter short-circuits to false
        let e = lit(false).and(lit(1i64).div(lit(0i64)).gt(lit(0i64)));
        assert_eq!(e.eval(&[]).unwrap(), Value::Bool(false));
        assert_eq!(Program::compile_det(&e).eval_det(&[], &mut regs).unwrap(), Value::Bool(false));
        // true || (1/0)
        let e = lit(true).or(lit(1i64).div(lit(0i64)).gt(lit(0i64)));
        assert_eq!(e.eval(&[]).unwrap(), Value::Bool(true));
        assert_eq!(Program::compile_det(&e).eval_det(&[], &mut regs).unwrap(), Value::Bool(true));
        // if picks only the taken branch
        let e = Expr::if_then_else(lit(true), lit(7i64), lit(1i64).div(lit(0i64)));
        assert_eq!(e.eval(&[]).unwrap(), Value::Int(7));
        assert_eq!(Program::compile_det(&e).eval_det(&[], &mut regs).unwrap(), Value::Int(7));
        // ... and errors when the erroring branch IS taken
        let e = Expr::if_then_else(lit(false), lit(7i64), lit(1i64).div(lit(0i64)));
        assert_eq!(e.eval(&[]).unwrap_err(), EvalError::DivisionByZero);
        assert_eq!(
            Program::compile_det(&e).eval_det(&[], &mut regs).unwrap_err(),
            EvalError::DivisionByZero
        );
    }

    /// Error classification matches the interpreter op for op —
    /// including the position of `UnknownColumn` probes relative to
    /// other errors.
    #[test]
    fn error_classification_matches() {
        let cases: Vec<(Expr, Vec<RangeValue>)> = vec![
            // unknown column
            (col(7).add(lit(1i64)), vec![rv(1, 1, 1)]),
            // the left operand's column error beats the right operand's
            // division error (evaluation order)
            (col(7).add(lit(1i64).div(lit(0i64))), vec![rv(1, 1, 1)]),
            // ... and vice versa when the column reference comes second
            (lit(1i64).div(col(0)).add(col(7)), vec![rv(-1, 0, 1)]),
            // spans-zero division
            (lit(1i64).div(col(0)), vec![rv(-1, 0, 1)]),
            // non-boolean And operand
            (col(0).and(lit(true)), vec![rv(1, 1, 2)]),
            // non-boolean If condition errors before the branches
            (Expr::if_then_else(col(0), lit(1i64).div(lit(0i64)), lit(2i64)), vec![rv(1, 1, 2)]),
            // type error in arithmetic
            (col(0).add(lit("x")), vec![rv(1, 1, 1)]),
        ];
        let mut regs = Vec::new();
        for (e, t) in cases {
            let interp = e.eval_range(&t).unwrap_err();
            let compiled = Program::compile_range(&e).eval_range(&t, &mut regs).unwrap_err();
            assert_eq!(interp, compiled, "error mismatch for {e}");
        }
    }

    /// Evaluate `p` over `rows` on the lanes and assert every row's
    /// outcome — output value or error, at that row's position — equals
    /// the scalar program's and the interpreter's for that row alone.
    fn assert_lanes_match_rows(e: &Expr, rows: &[Vec<RangeValue>], lb: &mut LaneBatch) {
        let p = Program::compile_range(e);
        let lanes: Vec<ValueLane> =
            (0..rows[0].len()).map(|c| ValueLane::from_cells(rows.iter().map(|r| &r[c]))).collect();
        let slices: Vec<LaneSlice<'_>> = lanes.iter().map(|l| l.as_slice()).collect();
        p.eval_range_lanes(&slices, rows.len(), lb, None).unwrap();
        let mut regs = Vec::new();
        p.prepare_range_regs(&mut regs);
        for (i, r) in rows.iter().enumerate() {
            let scalar = p.eval_range_into(r, &mut regs).map(|()| p.range_output(0, r, &regs));
            let lane = match lb.row_error(i) {
                Some(err) => Err(err.clone()),
                None => Ok(lb.output_lane(&p, 0, &slices).get(i)),
            };
            assert_eq!(lane, scalar.cloned(), "lanes vs scalar: {e} on row {i} of {rows:?}");
            assert_eq!(lane, e.eval_range(r), "lanes vs interpreter: {e} on row {i} of {rows:?}");
        }
        let poisoned = (0..rows.len()).filter(|&i| lb.row_error(i).is_some()).count();
        assert_eq!(lb.poisoned(), poisoned, "poison count: {e} on {rows:?}");
    }

    /// A lane batch equals row-at-a-time evaluation position for
    /// position: a row that errors at a late op and a later row that
    /// errors at an earlier op each keep their own error, so a caller
    /// reporting the earliest poisoned row reports what streaming the
    /// rows one by one would have met first.
    #[test]
    fn batch_matches_rows_and_error_order() {
        let mut lb = LaneBatch::default();
        let clean = vec![vec![rv(1, 2, 3), rv(1, 1, 2)], vec![rv(0, 1, 2), rv(2, 2, 4)]];
        assert_lanes_match_rows(&col(0).add(col(1)).div(col(1)), &clean, &mut lb);
        assert!((0..2).all(|i| lb.row_error(i).is_none()));
        assert_eq!(lb.poisoned(), 0);

        // row 0 errors at the Div (last op), row 1 at the Add (first op)
        let e = col(1).add(lit(1i64)).div(col(0));
        let rows = vec![
            vec![rv(-1, 0, 1), rv(1, 1, 1)], // divisor spans zero
            vec![rv(2, 2, 2), RangeValue::certain(Value::str("x"))], // type error
            vec![rv(2, 2, 2), rv(3, 3, 3)],
        ];
        assert_lanes_match_rows(&e, &rows, &mut lb);
        assert_eq!(lb.row_error(0), Some(&EvalError::RangeDivisionSpansZero));
        assert!(matches!(lb.row_error(1), Some(EvalError::BinOpTypeError { .. })));
        assert_eq!(lb.row_error(2), None);
        assert_eq!(lb.poisoned(), 2);
    }

    /// The lane entry point equals a batch of rows evaluated one by one,
    /// cell for cell — outputs, error classification, and error
    /// positions — on homogeneous Int, homogeneous Float, and
    /// mixed/boxed corpora, including rows that poison (spans-zero
    /// division, type errors) and rows that force kernel demotion (i64
    /// overflow).
    #[test]
    fn lanes_match_row_batch() {
        let corpora: Vec<Vec<Vec<RangeValue>>> = vec![
            // homogeneous Int (typed kernels all the way)
            vec![
                vec![rv(1, 2, 3), rv(0, 0, 5)],
                vec![rv(-3, -1, 0), rv(2, 2, 2)],
                vec![rv(4, 4, 4), rv(1, 1, 1)],
            ],
            // homogeneous Float
            vec![
                vec![
                    RangeValue::range(1.5f64, 2.0f64, 3.0f64),
                    RangeValue::range(0.5f64, 1.0f64, 1.5f64),
                ],
                vec![
                    RangeValue::range(-2.0f64, 0.0f64, 2.0f64),
                    RangeValue::certain(Value::float(3.0)),
                ],
            ],
            // mixed Int/Float cells and a string: boxed lanes
            vec![
                vec![
                    RangeValue::new(Value::Int(1), Value::Int(1), Value::float(1.5)).unwrap(),
                    rv(0, 1, 2),
                ],
                vec![RangeValue::certain(Value::str("x")), rv(1, 1, 1)],
                vec![RangeValue::unknown(Value::Int(0)), rv(2, 2, 2)],
            ],
            // poison inducers: col(1) spans zero on row 0, overflow on
            // row 1 (demotes the typed kernel mid-corpus)
            vec![
                vec![rv(1, 1, 1), rv(-1, 0, 1)],
                vec![rv(i64::MAX, i64::MAX, i64::MAX), rv(1, 1, 2)],
                vec![rv(5, 6, 7), rv(1, 2, 3)],
            ],
        ];
        let mut exprs_all = exprs();
        exprs_all.push(col(7).add(lit(1i64))); // unknown column, uniform arity
        exprs_all.push(col(0).and(lit(true))); // non-boolean And operand
        let mut lb = LaneBatch::default();
        for rows in &corpora {
            for e in &exprs_all {
                assert_lanes_match_rows(e, rows, &mut lb);
            }
        }
    }

    /// A batch reused across evaluations carries no stale poison: its
    /// slots are sized only by an evaluation that may poison a row, so a
    /// typed evaluation after a poisoning one — shorter or as long —
    /// reports every row clean, and a constant output is a lane of the
    /// current batch's length.
    #[test]
    fn reused_batch_carries_no_stale_poison() {
        let lanes_of = |rows: &[Vec<RangeValue>]| -> Vec<ValueLane> {
            (0..2).map(|c| ValueLane::from_cells(rows.iter().map(|r| &r[c]))).collect()
        };
        // every third divisor spans zero
        let rows: Vec<Vec<RangeValue>> = (0..2048)
            .map(|i| {
                let d = if i % 3 == 0 { rv(-1, 0, 1) } else { rv(1, 2, 3) };
                vec![rv(i, i, i + 1), d]
            })
            .collect();
        let div = Program::compile_range(&col(0).div(col(1)));
        let typed = Program::compile_range_many(&[col(0).add(lit(1i64)), lit(7i64)]);
        let lanes = lanes_of(&rows);
        let slices: Vec<LaneSlice<'_>> = lanes.iter().map(ValueLane::as_slice).collect();
        let mut lb = LaneBatch::default();

        div.eval_range_lanes(&slices, 2048, &mut lb, None).unwrap();
        assert_eq!(lb.poisoned(), 683);
        for i in 0..2048 {
            let want = (i % 3 == 0).then_some(&EvalError::RangeDivisionSpansZero);
            assert_eq!(lb.row_error(i), want, "row {i}");
        }
        assert_eq!(lb.demoted_kinds().to_string(), "div");

        for n in [1024, 2048] {
            let cut: Vec<LaneSlice<'_>> = lanes.iter().map(|l| l.slice(0..n)).collect();
            typed.eval_range_lanes(&cut, n, &mut lb, None).unwrap();
            assert_eq!(lb.poisoned(), 0, "{n} rows");
            assert!((0..2048).all(|i| lb.row_error(i).is_none()), "{n} rows");
            assert!(lb.demoted_kinds().is_empty());
            let konst = lb.output_lane(&typed, 1, &cut);
            assert_eq!(konst.len(), n);
            assert!((0..n).all(|i| konst.get(i) == rv(7, 7, 7)));
            assert_eq!(
                lb.output_lane(&typed, 0, &cut).get(n - 1),
                rv(n as i64, n as i64, n as i64 + 1)
            );
        }
    }

    /// Multi-output programs evaluate expressions in list order and
    /// support identity (`Col`) and constant outputs in place.
    #[test]
    fn multi_output_projection() {
        let es = vec![col(0).add(col(1)), col(0), col(0).mul(lit(2i64)), lit(7i64)];
        let p = Program::compile_range_many(&es);
        let t = vec![rv(1, 2, 3), rv(4, 5, 6)];
        let mut regs = Vec::new();
        p.prepare_range_regs(&mut regs);
        p.eval_range_into(&t, &mut regs).unwrap();
        for (i, e) in es.iter().enumerate() {
            assert_eq!(*p.range_output(i, &t, &regs), e.eval_range(&t).unwrap());
        }
        let pd = Program::compile_det_many(&es);
        let td = vec![Value::Int(3), Value::Int(9)];
        let mut dregs = Vec::new();
        pd.prepare_det_regs(&mut dregs);
        pd.eval_det_into(&td, &mut dregs).unwrap();
        for (i, e) in es.iter().enumerate() {
            assert_eq!(*pd.det_output(i, &td, &dregs), e.eval(&td).unwrap());
        }
    }
}
