//! Static verification of compiled [`Program`]s.
//!
//! The compiled expression backend (PR 5) is ~1.2k lines of hand-rolled
//! lowering with explicit jump targets, direct operand addressing, and a
//! shared register file; until now its only correctness evidence was
//! differential testing against the tree-walking interpreters. This
//! module turns "tested" into "verified by construction" with a two-tier
//! static analyzer:
//!
//! * **Tier A** ([`check_structure`]): a linear pass plus forward
//!   dataflow over the op array. Checks span/table consistency, const
//!   pool integrity, mode separation, register-file and const-pool
//!   bounds, jump-target validity (forward-only, in-bounds, confined to
//!   the emitting node's op region — no jump into the middle of a merged
//!   `If` region), subtree-extent contiguity (ops of one source node
//!   never interleave with a disjoint subtree's ops), register
//!   init-before-use on *every* path, single-assignment in range mode,
//!   `CheckCol`-dominates-every-`Col`-operand coverage, exit
//!   reachability, and output validity. Runs unconditionally at
//!   lowering time ([`Program::compile_range`] and friends panic on a
//!   Tier A failure — a freshly lowered program that fails is a lowerer
//!   bug) and is the gate a cached or deserialized program must pass
//!   before it may execute.
//!
//! * **Tier B** ([`check_abstract`]): translation validation plus
//!   abstract interpretation. Translation validation re-lowers the
//!   program's retained sources through the same lowerer and compares
//!   op-for-op — any non-behavior-preserving corruption of the op
//!   stream, spans, constant pool, or outputs diverges. The abstract
//!   interpreter then symbolically executes the program over a type ×
//!   interval lattice ([`Abs`]: type tag × `[lo,hi]` band with
//!   sg-containment) and proves every op's output satisfies the AU-DB
//!   triple invariant `lb ≤ sg ≤ ub` given well-formed inputs —
//!   constant subcomputations are folded through the *same* combinators
//!   the runtime uses, so the proof covers the real semantics, not a
//!   model of them. Statically decidable hazards are reported as
//!   advisory [`ProgramLint`]s (a certainly-erroring `Div`, a branch
//!   condition that is abstractly constant, unreachable ops, dead
//!   registers).
//!
//! Both tiers emit structured diagnostics naming the exact op index and
//! the source [`Expr`] node (via the per-op spans the lowerer records).
//!
//! The verifier itself is proven by a mutation harness ([`mutate`]):
//! random single-op corruptions of corpus-lowered programs (retargeted
//! jumps, dropped `CheckCol`s, swapped operands, clobbered registers,
//! …) must be caught by Tier A/B or be behavior-preserving under the
//! differential oracle.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt;

use crate::error::EvalError;
use crate::expr::{
    self, range_add, range_and, range_div, range_eq, range_if_merge, range_leq, range_lt,
    range_mul, range_neg, range_not, range_or, range_sub, range_uncertain,
};
use crate::program::{Mode, Op, Program, Reg, Src};
use crate::range::RangeValue;
use crate::value::Value;
use crate::Expr;

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

/// A structural verification failure: the program must not execute.
///
/// Carries the offending op index and, when the span tables are intact
/// enough to resolve it, the global preorder id and rendering of the
/// source [`Expr`] node that emitted the op.
#[must_use = "a verification failure means the program must not execute"]
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyError {
    pub kind: VerifyErrorKind,
    /// Offending op index, when the failure is attributable to one op.
    pub op: Option<usize>,
    /// Global preorder id of the source node behind the op.
    pub node: Option<u32>,
    /// Rendering of that source node.
    pub source: Option<String>,
}

/// What [`check_structure`] / [`check_abstract`] rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyErrorKind {
    /// `spans` and `ops` disagree in length.
    SpanTableMismatch { ops: usize, spans: usize },
    /// `node_offsets` does not describe `srcs` (length, base offsets, or
    /// the total-node-count sentinel).
    NodeTableInvalid { detail: String },
    /// An op's span is not a valid global preorder id.
    SpanOutOfBounds { span: u32, nodes: u32 },
    /// `consts_range[idx]` is not the certain lift of `consts[idx]`.
    ConstPoolMismatch { idx: usize },
    /// An op of the other lowering mode.
    ForeignOp { mode: Mode },
    /// A register operand or destination past the register file.
    RegisterOutOfBounds { reg: Reg, nregs: usize },
    /// A constant operand past the pool.
    ConstOutOfBounds { idx: u32, len: usize },
    /// A jump target past one-past-the-end.
    JumpOutOfBounds { to: u32, len: usize },
    /// A jump that does not move strictly forward (termination).
    JumpNotForward { to: u32 },
    /// A jump escaping its emitting node's op region — e.g. into the
    /// middle of a sibling `If` arm.
    JumpEscapesRegion { to: u32, region_end: usize },
    /// Ops of one source subtree interleave with a disjoint subtree's.
    SubtreeInterleaved,
    /// Range mode rewrote a register (range programs are
    /// single-assignment by construction).
    RegisterRewritten { reg: Reg },
    /// A register read on some path before any write.
    UninitRegisterRead { reg: Reg },
    /// A `Col` operand not dominated by a `CheckCol`/`LoadCol` probe of
    /// the same column.
    UncheckedColumnRead { col: u32 },
    /// Program exit is unreachable.
    ExitUnreachable,
    /// `outputs` and `srcs` disagree in length.
    OutputArityMismatch { outputs: usize, srcs: usize },
    /// An output reads a register that may be uninitialized at exit.
    OutputUninit { output: usize, reg: Reg },
    /// An output reads a column no path has checked.
    OutputUnchecked { output: usize, col: u32 },
    /// An output constant past the pool.
    OutputConstOutOfBounds { output: usize, idx: u32 },
    /// Tier B: re-lowering the retained sources produced a different
    /// program — the op stream does not implement its sources.
    TranslationDivergence { detail: String },
    /// Tier B: an op's abstract output violates `lb ≤ sg ≤ ub`.
    BoundViolation { detail: String },
}

impl fmt::Display for VerifyErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use VerifyErrorKind::*;
        match self {
            SpanTableMismatch { ops, spans } => {
                write!(f, "span table has {spans} entries for {ops} ops")
            }
            NodeTableInvalid { detail } => write!(f, "node offset table invalid: {detail}"),
            SpanOutOfBounds { span, nodes } => {
                write!(f, "span {span} out of bounds ({nodes} source nodes)")
            }
            ConstPoolMismatch { idx } => {
                write!(f, "consts_range[{idx}] is not the certain lift of consts[{idx}]")
            }
            ForeignOp { mode } => write!(f, "op from the other lowering mode in a {mode:?} program"),
            RegisterOutOfBounds { reg, nregs } => {
                write!(f, "register r{reg} out of bounds (register file holds {nregs})")
            }
            ConstOutOfBounds { idx, len } => {
                write!(f, "constant #{idx} out of bounds (pool holds {len})")
            }
            JumpOutOfBounds { to, len } => {
                write!(f, "jump target {to} out of bounds ({len} ops)")
            }
            JumpNotForward { to } => write!(f, "jump target {to} is not strictly forward"),
            JumpEscapesRegion { to, region_end } => write!(
                f,
                "jump target {to} escapes the emitting node's op region (which ends at {region_end})"
            ),
            SubtreeInterleaved => write!(f, "ops of disjoint source subtrees interleave"),
            RegisterRewritten { reg } => {
                write!(f, "register r{reg} written twice in a single-assignment range program")
            }
            UninitRegisterRead { reg } => {
                write!(f, "register r{reg} may be read before initialization")
            }
            UncheckedColumnRead { col } => {
                write!(f, "column {col} read without a dominating bounds probe")
            }
            ExitUnreachable => write!(f, "program exit is unreachable"),
            OutputArityMismatch { outputs, srcs } => {
                write!(f, "{outputs} outputs for {srcs} source expressions")
            }
            OutputUninit { output, reg } => {
                write!(f, "output {output} reads register r{reg}, possibly uninitialized at exit")
            }
            OutputUnchecked { output, col } => {
                write!(f, "output {output} reads column {col} without a bounds probe on some path")
            }
            OutputConstOutOfBounds { output, idx } => {
                write!(f, "output {output} reads constant #{idx} past the pool")
            }
            TranslationDivergence { detail } => {
                write!(f, "program diverges from the lowering of its sources: {detail}")
            }
            BoundViolation { detail } => {
                write!(f, "abstract output violates lb \u{2264} sg \u{2264} ub: {detail}")
            }
        }
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.op, self.node, &self.source) {
            (Some(op), Some(nid), Some(src)) => {
                write!(f, "op {op} (node {nid}: `{src}`): {}", self.kind)
            }
            (Some(op), Some(nid), None) => write!(f, "op {op} (node {nid}): {}", self.kind),
            (Some(op), ..) => write!(f, "op {op}: {}", self.kind),
            _ => write!(f, "{}", self.kind),
        }
    }
}

impl std::error::Error for VerifyError {}

impl VerifyError {
    /// A failure attributable to op `op` of `p`; resolves the source
    /// node through the span tables when they are intact.
    fn at(p: &Program, op: usize, kind: VerifyErrorKind) -> VerifyError {
        let node = p.spans.get(op).copied();
        let source = node.and_then(|n| p.node_expr(n)).map(|e| e.to_string());
        VerifyError { kind, op: Some(op), node, source }
    }

    /// A program-level failure not tied to one op.
    fn global(kind: VerifyErrorKind) -> VerifyError {
        VerifyError { kind, op: None, node: None, source: None }
    }
}

/// An advisory Tier B finding: the program is sound to execute but
/// contains a statically decidable hazard.
#[must_use = "lints are the verifier's findings; dropping them hides hazards"]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramLint {
    pub kind: LintKind,
    /// Op index the hazard anchors to.
    pub op: usize,
    /// Global preorder id of the source node behind the op.
    pub node: u32,
    /// Rendering of that source node.
    pub source: String,
}

/// Statically decidable hazards reported by Tier B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintKind {
    /// A division whose abstract divisor band certainly spans (or is)
    /// zero — the op errors on every row that reaches it.
    CertainDivByZero,
    /// An op whose abstract operand types certainly error (e.g.
    /// arithmetic on a boolean, a numeric branch condition).
    CertainTypeError,
    /// A non-literal branch / `CheckBool3` condition that is abstractly
    /// constant — the other arm is dead on every row.
    ConstantCondition,
    /// A det-mode op no jump path can reach.
    UnreachableOp,
    /// A range-mode register written but never read nor output.
    DeadRegister,
}

impl LintKind {
    /// Stable machine name (report JSON, CI gates).
    pub fn name(self) -> &'static str {
        match self {
            LintKind::CertainDivByZero => "certain_div_by_zero",
            LintKind::CertainTypeError => "certain_type_error",
            LintKind::ConstantCondition => "constant_condition",
            LintKind::UnreachableOp => "unreachable_op",
            LintKind::DeadRegister => "dead_register",
        }
    }
}

impl fmt::Display for ProgramLint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op {} (node {}: `{}`): {}", self.op, self.node, self.source, self.kind.name())
    }
}

fn lint(p: &Program, op: usize, kind: LintKind) -> ProgramLint {
    let node = p.spans.get(op).copied().unwrap_or(0);
    let source = p.node_expr(node).map(|e| e.to_string()).unwrap_or_default();
    ProgramLint { kind, op, node, source }
}

// ---------------------------------------------------------------------------
// Op shape helpers
// ---------------------------------------------------------------------------

/// Which mode an op belongs to (`None`: shared).
fn op_mode(op: &Op) -> Option<Mode> {
    match op {
        Op::CheckCol { .. } => None,
        Op::RangeAnd { .. }
        | Op::RangeOr { .. }
        | Op::RangeNot { .. }
        | Op::RangeEq { .. }
        | Op::RangeLeq { .. }
        | Op::RangeLt { .. }
        | Op::RangeAdd { .. }
        | Op::RangeSub { .. }
        | Op::RangeMul { .. }
        | Op::RangeDiv { .. }
        | Op::RangeNeg { .. }
        | Op::RangeCheckBool3 { .. }
        | Op::RangeIfMerge { .. }
        | Op::RangeUncertain { .. } => Some(Mode::Range),
        Op::LoadCol { .. }
        | Op::LoadConst { .. }
        | Op::DetAdd { .. }
        | Op::DetSub { .. }
        | Op::DetMul { .. }
        | Op::DetDiv { .. }
        | Op::DetNeg { .. }
        | Op::DetEq { .. }
        | Op::DetLeq { .. }
        | Op::DetLt { .. }
        | Op::DetNot { .. }
        | Op::DetAsBool { .. }
        | Op::Jump { .. }
        | Op::JumpIfFalse { .. }
        | Op::JumpIfTrue { .. } => Some(Mode::Det),
    }
}

/// An op's operand layout: the sources it reads (up to three, in
/// operand order), the register it writes and its jump target. The one
/// table Tier A's checks, Tier B's interpreter and the mutation harness
/// read operands through.
struct Slots<'a> {
    reads: [Option<&'a mut Src>; 3],
    dst: Option<&'a mut Reg>,
    to: Option<&'a mut u32>,
}

fn slots(op: &mut Op) -> Slots<'_> {
    let (reads, dst, to) = match op {
        Op::CheckCol { .. } => ([None, None, None], None, None),
        Op::LoadCol { dst, .. } | Op::LoadConst { dst, .. } => {
            ([None, None, None], Some(dst), None)
        }
        Op::Jump { to } => ([None, None, None], None, Some(to)),
        Op::JumpIfFalse { src, to } | Op::JumpIfTrue { src, to } => {
            ([Some(src), None, None], None, Some(to))
        }
        Op::RangeCheckBool3 { src } => ([Some(src), None, None], None, None),
        Op::RangeNot { a, dst }
        | Op::RangeNeg { a, dst }
        | Op::DetNeg { a, dst }
        | Op::DetNot { a, dst }
        | Op::DetAsBool { src: a, dst } => ([Some(a), None, None], Some(dst), None),
        Op::RangeAnd { a, b, dst }
        | Op::RangeOr { a, b, dst }
        | Op::RangeEq { a, b, dst }
        | Op::RangeLeq { a, b, dst }
        | Op::RangeLt { a, b, dst }
        | Op::RangeAdd { a, b, dst }
        | Op::RangeSub { a, b, dst }
        | Op::RangeMul { a, b, dst }
        | Op::RangeDiv { a, b, dst }
        | Op::DetAdd { a, b, dst }
        | Op::DetSub { a, b, dst }
        | Op::DetMul { a, b, dst }
        | Op::DetDiv { a, b, dst }
        | Op::DetEq { a, b, dst }
        | Op::DetLeq { a, b, dst }
        | Op::DetLt { a, b, dst } => ([Some(a), Some(b), None], Some(dst), None),
        Op::RangeIfMerge { c: a, t: b, e: c, dst }
        | Op::RangeUncertain { l: a, s: b, u: c, dst } => {
            ([Some(a), Some(b), Some(c)], Some(dst), None)
        }
    };
    Slots { reads, dst, to }
}

/// The operands an op reads (up to three).
fn op_reads(op: &Op) -> [Option<Src>; 3] {
    slots(&mut op.clone()).reads.map(|s| s.copied())
}

/// The register an op writes, if any.
fn op_dst(op: &Op) -> Option<Reg> {
    slots(&mut op.clone()).dst.copied()
}

/// A jump op's target, if the op is a jump.
fn op_jump(op: &Op) -> Option<u32> {
    slots(&mut op.clone()).to.copied()
}

// ---------------------------------------------------------------------------
// Tier A: structural dataflow verifier
// ---------------------------------------------------------------------------

/// Initialized-register / checked-column facts at one program point.
/// Merges at join points intersect (a fact must hold on *every* path).
#[derive(Clone, PartialEq)]
struct Flow {
    regs: Vec<u64>,
    cols: BTreeSet<u32>,
}

impl Flow {
    fn empty(nregs: usize) -> Flow {
        Flow { regs: vec![0; nregs.div_ceil(64)], cols: BTreeSet::new() }
    }
    fn reg(&self, r: Reg) -> bool {
        self.regs[r as usize / 64] & (1 << (r % 64)) != 0
    }
    fn set_reg(&mut self, r: Reg) {
        self.regs[r as usize / 64] |= 1 << (r % 64);
    }
    fn intersect(&mut self, other: &Flow) {
        for (a, b) in self.regs.iter_mut().zip(&other.regs) {
            *a &= b;
        }
        self.cols.retain(|c| other.cols.contains(c));
    }
}

fn merge_flow(slot: &mut Option<Flow>, incoming: &Flow) {
    match slot {
        None => *slot = Some(incoming.clone()),
        Some(prev) => prev.intersect(incoming),
    }
}

/// The preorder node table of a program's sources, built once per check:
/// per global node id, where its subtree's id interval ends and which
/// node is its parent. Every span question Tier A asks — a node's
/// ancestors, its extent — is a lookup here, which is what keeps the
/// pass `O(ops · depth)`: recomputing [`Expr::node_count`] per question
/// made a 1 000-term operator chain cubic.
struct Nodes {
    end: Vec<u32>,
    parent: Vec<u32>,
}

impl Nodes {
    fn of(srcs: &[Expr]) -> Nodes {
        fn visit(e: &Expr, parent: u32, t: &mut Nodes) {
            let id = t.end.len();
            t.end.push(0);
            t.parent.push(parent);
            for c in e.children().into_iter().flatten() {
                visit(c, id as u32, t);
            }
            t.end[id] = t.end.len() as u32;
        }
        let mut t = Nodes { end: Vec::new(), parent: Vec::new() };
        srcs.iter().for_each(|e| visit(e, u32::MAX, &mut t));
        t
    }

    /// The chain of source-subtree preorder intervals from the owning
    /// expression's root down to node `nid` (outermost first). Fails when
    /// `nid` names no node.
    fn ancestor_chain(&self, nid: u32, out: &mut Vec<(u32, u32)>) -> bool {
        out.clear();
        let mut cur = nid;
        while let Some(&end) = self.end.get(cur as usize) {
            out.push((cur, end));
            cur = self.parent[cur as usize];
        }
        out.reverse();
        cur == u32::MAX
    }
}

/// Tier A: the structural dataflow verifier. `O(ops · depth)`; no
/// abstract interpretation, no re-lowering — safe to run on every
/// compile unconditionally.
pub fn check_structure(p: &Program) -> Result<(), VerifyError> {
    use VerifyErrorKind::*;
    let n = p.ops.len();

    // -- table consistency ------------------------------------------------
    if p.spans.len() != n {
        return Err(VerifyError::global(SpanTableMismatch { ops: n, spans: p.spans.len() }));
    }
    if p.outputs.len() != p.srcs.len() {
        return Err(VerifyError::global(OutputArityMismatch {
            outputs: p.outputs.len(),
            srcs: p.srcs.len(),
        }));
    }
    if p.node_offsets.len() != p.srcs.len() + 1 {
        return Err(VerifyError::global(NodeTableInvalid {
            detail: format!("{} entries for {} sources", p.node_offsets.len(), p.srcs.len()),
        }));
    }
    let table = Nodes::of(&p.srcs);
    let mut off = 0u32;
    for k in 0..p.srcs.len() {
        if p.node_offsets[k] != off {
            return Err(VerifyError::global(NodeTableInvalid {
                detail: format!("offset {} for source {k}, expected {off}", p.node_offsets[k]),
            }));
        }
        off = table.end[off as usize];
    }
    let nodes = off;
    if *p.node_offsets.last().unwrap_or(&0) != nodes {
        return Err(VerifyError::global(NodeTableInvalid {
            detail: format!("sentinel {:?}, expected {nodes}", p.node_offsets.last()),
        }));
    }
    for (i, &s) in p.spans.iter().enumerate() {
        if s >= nodes {
            return Err(VerifyError::at(p, i, SpanOutOfBounds { span: s, nodes }));
        }
    }

    // -- constant pool integrity ------------------------------------------
    if p.consts_range.len() != p.consts.len() {
        return Err(VerifyError::global(ConstPoolMismatch {
            idx: p.consts_range.len().min(p.consts.len()),
        }));
    }
    for (i, (v, rv)) in p.consts.iter().zip(&p.consts_range).enumerate() {
        if *rv != RangeValue::certain(v.clone()) {
            return Err(VerifyError::global(ConstPoolMismatch { idx: i }));
        }
    }

    // -- per-op bounds and mode separation --------------------------------
    for (i, op) in p.ops.iter().enumerate() {
        if let Some(m) = op_mode(op) {
            if m != p.mode {
                return Err(VerifyError::at(p, i, ForeignOp { mode: p.mode }));
            }
        }
        for s in op_reads(op).into_iter().flatten() {
            match s {
                Src::Reg(r) if (r as usize) >= p.nregs => {
                    return Err(VerifyError::at(
                        p,
                        i,
                        RegisterOutOfBounds { reg: r, nregs: p.nregs },
                    ))
                }
                Src::Const(k) if (k as usize) >= p.consts.len() => {
                    return Err(VerifyError::at(
                        p,
                        i,
                        ConstOutOfBounds { idx: k, len: p.consts.len() },
                    ))
                }
                _ => {}
            }
        }
        if let Op::LoadConst { idx, .. } = op {
            if (*idx as usize) >= p.consts.len() {
                return Err(VerifyError::at(
                    p,
                    i,
                    ConstOutOfBounds { idx: *idx, len: p.consts.len() },
                ));
            }
        }
        if let Some(d) = op_dst(op) {
            if (d as usize) >= p.nregs {
                return Err(VerifyError::at(p, i, RegisterOutOfBounds { reg: d, nregs: p.nregs }));
            }
        }
        if let Some(to) = op_jump(op) {
            if (to as usize) > n {
                return Err(VerifyError::at(p, i, JumpOutOfBounds { to, len: n }));
            }
            if (to as usize) <= i {
                return Err(VerifyError::at(p, i, JumpNotForward { to }));
            }
        }
    }

    // -- subtree-extent contiguity ----------------------------------------
    // Walk the ops keeping the stack of currently open source subtrees
    // (as preorder-id intervals). Leaving a subtree closes it; a span
    // landing back inside a closed subtree means ops of disjoint
    // subtrees interleave — which would also defeat the jump-region
    // argument below.
    let mut open: Vec<(u32, u32)> = Vec::new();
    let mut closed: BTreeMap<u32, u32> = BTreeMap::new();
    let mut chain: Vec<(u32, u32)> = Vec::new();
    for (i, &s) in p.spans.iter().enumerate() {
        if !table.ancestor_chain(s, &mut chain) {
            return Err(VerifyError::at(p, i, SpanOutOfBounds { span: s, nodes }));
        }
        let mut k = 0;
        while k < open.len() && k < chain.len() && open[k] == chain[k] {
            k += 1;
        }
        while open.len() > k {
            if let Some((lo, hi)) = open.pop() {
                let inner: Vec<u32> = closed.range(lo..hi).map(|(a, _)| *a).collect();
                for a in inner {
                    closed.remove(&a);
                }
                closed.insert(lo, hi);
            }
        }
        for &(lo, hi) in &chain[k..] {
            if let Some((_, &chi)) = closed.range(..=lo).next_back() {
                if lo < chi {
                    return Err(VerifyError::at(p, i, SubtreeInterleaved));
                }
            }
            open.push((lo, hi));
        }
    }

    // -- jump confinement -------------------------------------------------
    // A jump emitted by node `s` may target only ops of `s`'s own
    // subtree, or the single op just past its extent (the lowerer's
    // "end" label). Anything else jumps into the middle of some other
    // node's merged region.
    // `last[s]`: the last op of node `s`'s subtree — ids descend, so a
    // node is folded into its parent after all of its own children.
    let mut last = vec![0usize; nodes as usize];
    p.spans.iter().enumerate().for_each(|(i, &s)| last[s as usize] = i);
    for id in (0..nodes as usize).rev() {
        let sub = last[id];
        if let Some(up) = last.get_mut(table.parent[id] as usize) {
            *up = (*up).max(sub);
        }
    }
    for (i, op) in p.ops.iter().enumerate() {
        if let Some(to) = op_jump(op) {
            let extent_end = last[p.spans[i] as usize];
            if (to as usize) > extent_end + 1 {
                return Err(VerifyError::at(
                    p,
                    i,
                    JumpEscapesRegion { to, region_end: extent_end },
                ));
            }
        }
    }

    // -- forward dataflow: init-before-use, checked columns, exit ---------
    // Jumps are strictly forward (checked above), so one in-order pass
    // reaches the fixpoint: every predecessor of op `i` has index < i.
    let mut states: Vec<Option<Flow>> = vec![None; n + 1];
    states[0] = Some(Flow::empty(p.nregs));
    let mut written = vec![false; p.nregs];
    for i in 0..n {
        let Some(flow) = states[i].clone() else { continue };
        let op = &p.ops[i];
        for s in op_reads(op).into_iter().flatten() {
            match s {
                Src::Reg(r) if !flow.reg(r) => {
                    return Err(VerifyError::at(p, i, UninitRegisterRead { reg: r }))
                }
                Src::Col(c) if !flow.cols.contains(&c) => {
                    return Err(VerifyError::at(p, i, UncheckedColumnRead { col: c }))
                }
                _ => {}
            }
        }
        let mut out = flow;
        match op {
            Op::CheckCol { col } => {
                out.cols.insert(*col);
            }
            Op::LoadCol { col, dst } => {
                // LoadCol bounds-checks the column itself, so it both
                // initializes `dst` and establishes the column fact.
                out.cols.insert(*col);
                out.set_reg(*dst);
            }
            _ => {
                if let Some(d) = op_dst(op) {
                    if p.mode == Mode::Range && written[d as usize] {
                        return Err(VerifyError::at(p, i, RegisterRewritten { reg: d }));
                    }
                    written[d as usize] = true;
                    out.set_reg(d);
                }
            }
        }
        match op {
            Op::Jump { to } => merge_flow(&mut states[*to as usize], &out),
            Op::JumpIfFalse { to, .. } | Op::JumpIfTrue { to, .. } => {
                merge_flow(&mut states[*to as usize], &out);
                merge_flow(&mut states[i + 1], &out);
            }
            _ => merge_flow(&mut states[i + 1], &out),
        }
    }
    let Some(exit) = &states[n] else {
        return Err(VerifyError::global(ExitUnreachable));
    };

    // -- outputs ----------------------------------------------------------
    for (k, out) in p.outputs.iter().enumerate() {
        match *out {
            Src::Reg(r) if (r as usize) >= p.nregs || !exit.reg(r) => {
                return Err(VerifyError::global(OutputUninit { output: k, reg: r }))
            }
            Src::Col(c) if !exit.cols.contains(&c) => {
                return Err(VerifyError::global(OutputUnchecked { output: k, col: c }))
            }
            Src::Const(idx) if (idx as usize) >= p.consts.len() => {
                return Err(VerifyError::global(OutputConstOutOfBounds { output: k, idx }))
            }
            _ => {}
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Tier B: translation validation + abstract interpretation
// ---------------------------------------------------------------------------

/// The abstract value lattice: a type tag with an optional exact
/// constant or `[lo,hi]` band. `Exact` is the bottom-most informative
/// element — a triple known completely, folded through the *runtime*
/// combinators; `Bool` knows a boolean triple's components partially;
/// `Num` knows only "certainly numeric, within this band". Bands
/// over-approximate the union of all three triple components, so
/// sg-containment holds by construction.
#[derive(Debug, Clone, PartialEq)]
enum Abs {
    /// No value yet (unwritten register on this path).
    Bot,
    /// Exactly this triple on every row.
    Exact(RangeValue),
    /// Certainly a boolean triple, components partially known.
    Bool { lb: Option<bool>, sg: Option<bool>, ub: Option<bool> },
    /// Certainly numeric (Int/Float), all components within the band.
    Num { lo: f64, hi: f64 },
    /// Certainly neither numeric nor boolean (Null/Str/sentinel).
    Other,
    /// Any well-formed value.
    Top,
}

impl Abs {
    fn join(&self, other: &Abs) -> Abs {
        use Abs::*;
        match (self, other) {
            (Bot, x) | (x, Bot) => x.clone(),
            (a, b) if a == b => a.clone(),
            (a, b) => match (a.widen(), b.widen()) {
                (Bool { lb, sg, ub }, Bool { lb: l2, sg: s2, ub: u2 }) => {
                    Bool { lb: join_opt(lb, l2), sg: join_opt(sg, s2), ub: join_opt(ub, u2) }
                }
                (Num { lo, hi }, Num { lo: l2, hi: h2 }) => num_band(lo.min(l2), hi.max(h2)),
                (Other, Other) => Other,
                _ => Top,
            },
        }
    }

    /// Drop the `Exact` constant down to its tag + band.
    fn widen(&self) -> Abs {
        match self {
            Abs::Exact(rv) => match abs_tag(rv) {
                Some(t) => t,
                None => Abs::Top,
            },
            other => other.clone(),
        }
    }

    /// The boolean triple view, if this value can be a boolean at all.
    /// `Err(())` means "certainly errors under `as_bool3`".
    #[allow(clippy::type_complexity)] // a one-off triple-of-options view
    fn as_bool3(&self) -> Result<(Option<bool>, Option<bool>, Option<bool>), ()> {
        match self {
            Abs::Exact(rv) => match rv.as_bool3() {
                Ok((l, s, u)) => Ok((Some(l), Some(s), Some(u))),
                Err(_) => Err(()),
            },
            Abs::Bool { lb, sg, ub } => Ok((*lb, *sg, *ub)),
            Abs::Num { .. } | Abs::Other => Err(()),
            Abs::Top | Abs::Bot => Ok((None, None, None)),
        }
    }

    /// Is arithmetic on this operand certain to raise a type error?
    fn certainly_non_numeric(&self) -> bool {
        match self {
            Abs::Bool { .. } | Abs::Other => true,
            Abs::Exact(rv) => {
                !matches!(rv.lb, Value::Int(_) | Value::Float(_))
                    || !matches!(rv.sg, Value::Int(_) | Value::Float(_))
                    || !matches!(rv.ub, Value::Int(_) | Value::Float(_))
            }
            _ => false,
        }
    }

    /// The numeric band, if this value is certainly numeric.
    fn band(&self) -> Option<(f64, f64)> {
        match self {
            Abs::Num { lo, hi } => Some((*lo, *hi)),
            Abs::Exact(rv) if !self.certainly_non_numeric() => {
                let lo = value_f64(&rv.lb)?;
                let hi = value_f64(&rv.ub)?;
                Some((lo, hi))
            }
            _ => None,
        }
    }
}

fn join_opt(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(x), Some(y)) if x == y => Some(x),
        _ => None,
    }
}

fn value_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(_) => v.as_f64(),
        _ => None,
    }
}

/// NaN-proof band constructor (`inf - inf` widens to the full line).
fn num_band(lo: f64, hi: f64) -> Abs {
    if lo.is_nan() || hi.is_nan() {
        Abs::Num { lo: f64::NEG_INFINITY, hi: f64::INFINITY }
    } else {
        Abs::Num { lo, hi }
    }
}

/// Tag + band of an exact triple (for joins).
fn abs_tag(rv: &RangeValue) -> Option<Abs> {
    match rv.as_bool3() {
        Ok((l, s, u)) => Some(Abs::Bool { lb: Some(l), sg: Some(s), ub: Some(u) }),
        Err(_) => {
            let all_num = [&rv.lb, &rv.sg, &rv.ub]
                .iter()
                .all(|v| matches!(v, Value::Int(_) | Value::Float(_)));
            if all_num {
                Some(num_band(value_f64(&rv.lb)?, value_f64(&rv.ub)?))
            } else if [&rv.lb, &rv.sg, &rv.ub]
                .iter()
                .all(|v| matches!(v, Value::Null | Value::Str(_)))
            {
                Some(Abs::Other)
            } else {
                None
            }
        }
    }
}

/// The per-op proof obligation: every abstract output must itself
/// satisfy `lb ≤ sg ≤ ub` (exact triples via the real total order,
/// boolean triples via the implication chain, bands via `lo ≤ hi`).
fn check_wf(p: &Program, i: usize, a: &Abs) -> Result<(), VerifyError> {
    let violation =
        |detail: String| Err(VerifyError::at(p, i, VerifyErrorKind::BoundViolation { detail }));
    match a {
        Abs::Exact(rv) => {
            use std::cmp::Ordering::Greater;
            if rv.lb.total_cmp(&rv.sg) == Greater || rv.sg.total_cmp(&rv.ub) == Greater {
                return violation(format!("[{} / {} / {}]", rv.lb, rv.sg, rv.ub));
            }
            Ok(())
        }
        Abs::Bool { lb, sg, ub } => {
            // certainly-true ⇒ selected-guess-true ⇒ possibly-true
            if (*lb == Some(true) && *sg == Some(false))
                || (*sg == Some(true) && *ub == Some(false))
                || (*lb == Some(true) && *ub == Some(false))
            {
                return violation(format!("bool triple [{lb:?} / {sg:?} / {ub:?}]"));
            }
            Ok(())
        }
        Abs::Num { lo, hi } => {
            if lo > hi {
                return violation(format!("band [{lo}, {hi}]"));
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Map a certainly-raised [`EvalError`] to the lint class it proves.
fn error_lint(e: &EvalError) -> LintKind {
    match e {
        EvalError::DivisionByZero | EvalError::RangeDivisionSpansZero => LintKind::CertainDivByZero,
        _ => LintKind::CertainTypeError,
    }
}

/// Is the condition behind op `i` a literal `Const` in the source? A
/// constant branch on a literal is idiomatic (`lit(true)` predicates,
/// `Expr::conj(vec![])`), so [`LintKind::ConstantCondition`] skips it.
fn literal_condition(p: &Program, i: usize) -> bool {
    let Some(node) = p.spans.get(i) else { return false };
    match p.node_expr(*node) {
        Some(Expr::And(a, _)) | Some(Expr::Or(a, _)) | Some(Expr::If(a, _, _)) => {
            matches!(**a, Expr::Const(_))
        }
        _ => false,
    }
}

/// Tier B entry point: translation validation, then abstract
/// interpretation. Returns the advisory lints collected along the way
/// (sorted by op index); a hard error means the program must not
/// execute.
pub fn check_abstract(p: &Program) -> Result<Vec<ProgramLint>, VerifyError> {
    check_translation(p)?;
    let mut lints = interpret(p)?;
    lints.sort_by_key(|l| (l.op, l.kind));
    Ok(lints)
}

/// Translation validation: re-lower the retained sources through the
/// same lowerer and require an op-for-op identical program. The
/// lowerer is deterministic, so any divergence means the op stream no
/// longer implements its sources (cache corruption, a tampered
/// program, or a non-deterministic lowerer bug).
fn check_translation(p: &Program) -> Result<(), VerifyError> {
    let q = p.relower();
    let diverged = |detail: String, op: Option<usize>| {
        let mut e = VerifyError::global(VerifyErrorKind::TranslationDivergence { detail });
        if let Some(i) = op {
            e = VerifyError::at(p, i, e.kind);
        }
        Err(e)
    };
    if p.ops.len() != q.ops.len() {
        return diverged(format!("{} ops, re-lowering has {}", p.ops.len(), q.ops.len()), None);
    }
    for (i, (a, b)) in p.ops.iter().zip(&q.ops).enumerate() {
        if a != b {
            return diverged(format!("op {i} is {a:?}, re-lowering has {b:?}"), Some(i));
        }
    }
    for (i, (a, b)) in p.spans.iter().zip(&q.spans).enumerate() {
        if a != b {
            return diverged(format!("span {i} is {a}, re-lowering has {b}"), Some(i));
        }
    }
    if p.nregs != q.nregs {
        return diverged(format!("{} registers, re-lowering has {}", p.nregs, q.nregs), None);
    }
    if p.outputs != q.outputs {
        return diverged(format!("outputs {:?} vs {:?}", p.outputs, q.outputs), None);
    }
    if p.consts != q.consts {
        return diverged("constant pool differs".to_string(), None);
    }
    if p.consts_range != q.consts_range {
        return diverged("range constant pool differs".to_string(), None);
    }
    if p.node_offsets != q.node_offsets {
        return diverged("node offset table differs".to_string(), None);
    }
    Ok(())
}

/// A constant fold's outcome: the exact triple, or — when the runtime
/// combinator certainly errors — the lint that error proves, and `Top`.
fn exact(
    p: &Program,
    i: usize,
    r: Result<RangeValue, EvalError>,
    lints: &mut Vec<ProgramLint>,
) -> Abs {
    r.map(Abs::Exact).unwrap_or_else(|e| {
        lints.push(lint(p, i, error_lint(&e)));
        Abs::Top
    })
}

/// A det op's combinator: the `Value` operation on the `sg`s of two
/// certain lifts, lifted back.
fn lift(
    f: fn(&Value, &Value) -> Result<Value, EvalError>,
) -> impl Fn(&RangeValue, &RangeValue) -> Result<RangeValue, EvalError> {
    move |x, y| f(&x.sg, &y.sg).map(RangeValue::certain)
}

/// [`lift`] for a det comparison.
fn lift_cmp(f: fn(&Value, &Value) -> bool) -> impl Fn(&RangeValue, &RangeValue) -> RangeValue {
    move |x, y| RangeValue::certain(Value::Bool(f(&x.sg, &y.sg)))
}

/// Shared transfer for the boolean connectives: fold exact operands
/// through `comb`, certainly-non-boolean operands lint, otherwise apply
/// the three-valued component function.
fn connective(
    p: &Program,
    i: usize,
    a: &Abs,
    b: &Abs,
    comb: impl Fn(&RangeValue, &RangeValue) -> Result<RangeValue, EvalError>,
    f3: impl Fn(Option<bool>, Option<bool>) -> Option<bool>,
    lints: &mut Vec<ProgramLint>,
) -> Abs {
    if let (Abs::Exact(x), Abs::Exact(y)) = (a, b) {
        return exact(p, i, comb(x, y), lints);
    }
    match (a.as_bool3(), b.as_bool3()) {
        (Err(()), _) | (_, Err(())) => {
            lints.push(lint(p, i, LintKind::CertainTypeError));
            Abs::Top
        }
        (Ok((l1, s1, u1)), Ok((l2, s2, u2))) => {
            Abs::Bool { lb: f3(l1, l2), sg: f3(s1, s2), ub: f3(u1, u2) }
        }
    }
}

fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

/// Shared transfer for arithmetic: fold exact operands through `comb`,
/// certainly-non-numeric operands lint, numeric operands propagate
/// their band through `band_op`.
fn arith(
    p: &Program,
    i: usize,
    a: &Abs,
    b: &Abs,
    comb: impl Fn(&RangeValue, &RangeValue) -> Result<RangeValue, EvalError>,
    band_op: fn((f64, f64), (f64, f64)) -> Abs,
    lints: &mut Vec<ProgramLint>,
) -> Abs {
    if let (Abs::Exact(x), Abs::Exact(y)) = (a, b) {
        return exact(p, i, comb(x, y), lints);
    }
    if a.certainly_non_numeric() || b.certainly_non_numeric() {
        lints.push(lint(p, i, LintKind::CertainTypeError));
        return Abs::Top;
    }
    match (a.band(), b.band()) {
        (Some(x), Some(y)) => band_op(x, y),
        _ => Abs::Top,
    }
}

/// Shared transfer for negation: [`arith`] of one operand,
/// whose band mirrors.
fn negate(
    p: &Program,
    i: usize,
    a: &Abs,
    comb: impl Fn(&RangeValue) -> Result<RangeValue, EvalError>,
    lints: &mut Vec<ProgramLint>,
) -> Abs {
    if let Abs::Exact(x) = a {
        return exact(p, i, comb(x), lints);
    }
    if a.certainly_non_numeric() {
        lints.push(lint(p, i, LintKind::CertainTypeError));
        return Abs::Top;
    }
    a.band().map_or(Abs::Top, |(lo, hi)| num_band(-hi, -lo))
}

/// Shared transfer for comparisons: they are total, so an operand that
/// is not exact leaves a certainly-boolean result.
fn compare(a: &Abs, b: &Abs, comb: impl Fn(&RangeValue, &RangeValue) -> RangeValue) -> Abs {
    match (a, b) {
        (Abs::Exact(x), Abs::Exact(y)) => Abs::Exact(comb(x, y)),
        _ => Abs::Bool { lb: None, sg: None, ub: None },
    }
}

fn add_band((al, ah): (f64, f64), (bl, bh): (f64, f64)) -> Abs {
    num_band(al + bl, ah + bh)
}

fn sub_band((al, ah): (f64, f64), (bl, bh): (f64, f64)) -> Abs {
    num_band(al - bh, ah - bl)
}

fn mul_band((al, ah): (f64, f64), (bl, bh): (f64, f64)) -> Abs {
    let corners = [al * bl, al * bh, ah * bl, ah * bh];
    if corners.iter().any(|c| c.is_nan()) {
        // `∞ · 0` bounds nothing: the full line, as `num_band` widens
        // `∞ − ∞` (the NaN-skipping fold below would leave `[∞, −∞]`).
        return num_band(f64::NEG_INFINITY, f64::INFINITY);
    }
    let lo = corners.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = corners.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    num_band(lo, hi)
}

/// A range quotient's band: a non-exact divisor band spanning zero only
/// *may* hit the spans-zero guard, so no lint, and integer division
/// truncates, so corner quotients are not attained bounds — the full
/// line.
fn div_band(_: (f64, f64), _: (f64, f64)) -> Abs {
    num_band(f64::NEG_INFINITY, f64::INFINITY)
}

/// A det quotient: `Top`.
fn top_band(_: (f64, f64), _: (f64, f64)) -> Abs {
    Abs::Top
}

/// Join `incoming` into the register state at a merge point.
fn merge(slot: &mut Option<Vec<Abs>>, incoming: Vec<Abs>) {
    match slot {
        None => *slot = Some(incoming),
        Some(prev) => prev.iter_mut().zip(&incoming).for_each(|(a, b)| *a = a.join(b)),
    }
}

/// Tier B's abstract interpreter: forward dataflow over the op CFG, a
/// range program being the jump-free case. Jumps are strictly forward
/// (Tier A), so one in-order pass reaches the fixpoint: the register
/// state moves along the fall-through edge, a jump joins a copy into its
/// target's state, and an op no edge reaches is unreachable. A det op
/// is the certain lift of its range op, folded through the lifted
/// `Value` operation.
fn interpret(p: &Program) -> Result<Vec<ProgramLint>, VerifyError> {
    let mut lints = Vec::new();
    // Register states that arrive by a jump, per target: a range
    // program is jump-free and allocates none.
    let mut jumped: Vec<Option<Vec<Abs>>> = match p.mode {
        Mode::Range => Vec::new(),
        Mode::Det => vec![None; p.ops.len() + 1],
    };
    let mut fall = Some(vec![Abs::Bot; p.nregs]);
    for (i, op) in p.ops.iter().enumerate() {
        let mut state = jumped.get_mut(i).and_then(Option::take);
        if let Some(regs) = fall.take() {
            merge(&mut state, regs);
        }
        let Some(mut regs) = state else {
            lints.push(lint(p, i, LintKind::UnreachableOp));
            continue;
        };
        let get = |s: Option<Src>| match s {
            Some(Src::Reg(r)) => regs[r as usize].clone(),
            Some(Src::Col(_)) => Abs::Top,
            Some(Src::Const(k)) => Abs::Exact(p.consts_range[k as usize].clone()),
            None => Abs::Bot,
        };
        // Not `op_reads(op).map(get)`: `[_; 3]::map` moves the three
        // values through a temporary array, which made a small range
        // program's check ~1.5× slower.
        let [a, b, c] = op_reads(op);
        let (x, y, z) = (get(a), get(b), get(c));
        // `Bot` for an op that writes no register.
        let out = match op {
            Op::CheckCol { .. } | Op::Jump { .. } => Abs::Bot,
            Op::RangeCheckBool3 { .. } | Op::JumpIfFalse { .. } | Op::JumpIfTrue { .. } => {
                match x.as_bool3() {
                    Err(()) => lints.push(lint(p, i, LintKind::CertainTypeError)),
                    // A range condition is constant when its three
                    // components agree, a det one when its value is known.
                    Ok((l, s, u)) => {
                        let constant = match op {
                            Op::RangeCheckBool3 { .. } => l.is_some() && l == s && s == u,
                            _ => s.is_some(),
                        };
                        if constant && !literal_condition(p, i) {
                            lints.push(lint(p, i, LintKind::ConstantCondition));
                        }
                    }
                }
                Abs::Bot
            }
            Op::LoadCol { .. } => Abs::Top,
            Op::LoadConst { idx, .. } => Abs::Exact(p.consts_range[*idx as usize].clone()),
            Op::RangeAnd { .. } => connective(p, i, &x, &y, range_and, and3, &mut lints),
            Op::RangeOr { .. } => connective(p, i, &x, &y, range_or, or3, &mut lints),
            Op::RangeNot { .. } => match (&x, x.as_bool3()) {
                (Abs::Exact(rv), _) => exact(p, i, range_not(rv), &mut lints),
                // ¬[l/s/u] = [¬u/¬s/¬l]: bounds swap.
                (_, Ok((l, s, u))) => {
                    Abs::Bool { lb: u.map(|b| !b), sg: s.map(|b| !b), ub: l.map(|b| !b) }
                }
                (_, Err(())) => {
                    lints.push(lint(p, i, LintKind::CertainTypeError));
                    Abs::Top
                }
            },
            // A det boolean is its `sg`, which `DetNot` flips.
            Op::DetNot { .. } | Op::DetAsBool { .. } => match x.as_bool3() {
                Err(()) => {
                    lints.push(lint(p, i, LintKind::CertainTypeError));
                    Abs::Top
                }
                Ok((_, s, _)) => match s.map(|b| b != matches!(op, Op::DetNot { .. })) {
                    Some(b) => Abs::Exact(RangeValue::certain(Value::Bool(b))),
                    None => Abs::Bool { lb: None, sg: None, ub: None },
                },
            },
            Op::RangeEq { .. } => compare(&x, &y, range_eq),
            Op::RangeLeq { .. } => compare(&x, &y, range_leq),
            Op::RangeLt { .. } => compare(&x, &y, range_lt),
            Op::DetEq { .. } => compare(&x, &y, lift_cmp(Value::value_eq)),
            Op::DetLeq { .. } => compare(&x, &y, lift_cmp(expr::leq)),
            Op::DetLt { .. } => compare(&x, &y, lift_cmp(expr::lt)),
            Op::RangeAdd { .. } => arith(p, i, &x, &y, range_add, add_band, &mut lints),
            Op::RangeSub { .. } => arith(p, i, &x, &y, range_sub, sub_band, &mut lints),
            Op::RangeMul { .. } => arith(p, i, &x, &y, range_mul, mul_band, &mut lints),
            Op::RangeDiv { .. } => arith(p, i, &x, &y, range_div, div_band, &mut lints),
            Op::DetAdd { .. } => arith(p, i, &x, &y, lift(Value::add), add_band, &mut lints),
            Op::DetSub { .. } => arith(p, i, &x, &y, lift(Value::sub), sub_band, &mut lints),
            Op::DetMul { .. } => arith(p, i, &x, &y, lift(Value::mul), mul_band, &mut lints),
            Op::DetDiv { .. } => arith(p, i, &x, &y, lift(Value::div), top_band, &mut lints),
            Op::RangeNeg { .. } => negate(p, i, &x, range_neg, &mut lints),
            Op::DetNeg { .. } => {
                negate(p, i, &x, |v| v.sg.neg().map(RangeValue::certain), &mut lints)
            }
            Op::RangeIfMerge { .. } => match (&x, y, z) {
                (Abs::Exact(c), Abs::Exact(t), Abs::Exact(e)) => {
                    exact(p, i, range_if_merge(c, t, e), &mut lints)
                }
                (_, t, e) => match x.as_bool3() {
                    Ok((Some(true), Some(true), Some(true))) => t,
                    Ok((Some(false), Some(false), Some(false))) => e,
                    Ok(_) => t.join(&e),
                    Err(()) => Abs::Top, // CheckBool3 already linted
                },
            },
            Op::RangeUncertain { .. } => match (&x, &y, &z) {
                (Abs::Exact(l), Abs::Exact(s), Abs::Exact(u)) => {
                    exact(p, i, range_uncertain(l, s, u), &mut lints)
                }
                // The widened triple's components are min/maxed from
                // the three operands, so the join covers the hull.
                _ => x.join(&y).join(&z),
            },
        };
        if let Some(d) = op_dst(op) {
            check_wf(p, i, &out)?;
            regs[d as usize] = out;
        }
        match *op {
            Op::Jump { to } => merge(&mut jumped[to as usize], regs),
            Op::JumpIfFalse { to, .. } | Op::JumpIfTrue { to, .. } => {
                merge(&mut jumped[to as usize], regs.clone());
                fall = Some(regs);
            }
            _ => fall = Some(regs),
        }
    }

    // Dead registers: range programs are single-assignment, so a write
    // nothing ever reads (and no output exposes) is dead code — the
    // lowerer never emits one, a corrupted operand often leaves one.
    if p.mode == Mode::Range {
        let mut read = vec![false; p.nregs];
        let reads = p.ops.iter().flat_map(op_reads).flatten();
        for s in reads.chain(p.outputs.iter().copied()) {
            if let Src::Reg(r) = s {
                read[r as usize] = true;
            }
        }
        for (i, op) in p.ops.iter().enumerate() {
            if op_dst(op).is_some_and(|d| !read[d as usize]) {
                lints.push(lint(p, i, LintKind::DeadRegister));
            }
        }
    }
    Ok(lints)
}

// ---------------------------------------------------------------------------
// Mutation harness
// ---------------------------------------------------------------------------

/// The verifier's own proof obligation: single-op corruptions of real
/// lowered programs must be caught by Tier A/B (or be provably
/// behavior-preserving under the differential oracle). [`mutants`]
/// enumerates a deterministic corruption set per program;
/// [`classify`][mutate::classify] runs each through both tiers and, for
/// survivors, the oracle.
pub mod mutate {
    use super::*;

    /// One corrupted copy of a program.
    pub struct Mutant {
        /// Corruption class (stable name for reports).
        pub class: &'static str,
        /// Human description of the specific corruption.
        pub detail: String,
        pub program: Program,
    }

    /// How a mutant was (or was not) caught.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Verdict {
        /// Rejected by the Tier A structural verifier.
        CaughtTierA,
        /// Rejected by Tier B (translation validation or abstract
        /// interpretation).
        CaughtTierB,
        /// Surfaced as a new Tier B lint absent from the original.
        CaughtLint,
        /// Identical behavior to the original on the oracle corpus —
        /// the corruption was behavior-preserving.
        OracleEquivalent,
        /// Undetected *and* behavior-changing: a verifier gap.
        Missed,
    }

    impl Verdict {
        /// Counts toward the detection-rate gate? (`OracleEquivalent`
        /// mutants are excluded from the denominator — there is nothing
        /// to detect.)
        pub fn detected(self) -> bool {
            !matches!(self, Verdict::Missed | Verdict::OracleEquivalent)
        }

        /// Stable machine name (report JSON).
        pub fn name(self) -> &'static str {
            match self {
                Verdict::CaughtTierA => "tier_a",
                Verdict::CaughtTierB => "tier_b",
                Verdict::CaughtLint => "new_lint",
                Verdict::OracleEquivalent => "oracle_equivalent",
                Verdict::Missed => "missed",
            }
        }
    }

    /// Deterministic single-op corruption set for `p`: every applicable
    /// (op, class) pair. Corruptions that reproduce the original
    /// program byte-for-byte (e.g. swapping syntactically equal
    /// operands) are dropped.
    pub fn mutants(p: &Program) -> Vec<Mutant> {
        let mut out = Vec::new();
        let mut push = |class: &'static str, detail: String, program: Program| {
            if program.ops != p.ops
                || program.outputs != p.outputs
                || program.spans != p.spans
                || program.consts != p.consts
            {
                out.push(Mutant { class, detail, program });
            }
        };
        for (i, op) in p.ops.iter().enumerate() {
            // Retargeted jumps: forward past the region, backward, and
            // off-by-one.
            if let Some(to) = op_jump(op) {
                for (delta, nt) in [
                    ("+1", to.saturating_add(1)),
                    ("-1", to.saturating_sub(1)),
                    ("->0", 0),
                    ("->end", p.ops.len() as u32),
                ] {
                    let mut q = p.clone();
                    if let Some(t) = slots(&mut q.ops[i]).to {
                        *t = nt;
                    }
                    push("retarget_jump", format!("op {i}: jump {to} {delta} => {nt}"), q);
                }
            }
            // Dropped CheckCol probes.
            if matches!(op, Op::CheckCol { .. }) {
                let mut q = p.clone();
                q.ops.remove(i);
                q.spans.remove(i);
                push("drop_checkcol", format!("op {i}: CheckCol removed"), q);
            }
            // Swapped binary operands.
            if let Some(swapped) = swap_operands(op) {
                let mut q = p.clone();
                q.ops[i] = swapped;
                push("swap_operands", format!("op {i}: operands swapped"), q);
            }
            // Clobbered destination register.
            if let Some(d) = op_dst(op) {
                if p.nregs > 1 {
                    let nd = (d + 1) % p.nregs as u32;
                    let mut q = p.clone();
                    if let Some(dst) = slots(&mut q.ops[i]).dst {
                        *dst = nd;
                    }
                    push("clobber_register", format!("op {i}: dst r{d} => r{nd}"), q);
                }
            }
            // Redirected first operand (register, column, or constant).
            if let Some(redirected) = redirect_first_operand(op, p) {
                let mut q = p.clone();
                q.ops[i] = redirected;
                push("redirect_operand", format!("op {i}: first operand redirected"), q);
            }
            // Corrupted span attribution.
            {
                let total: u32 = p.node_offsets.last().copied().unwrap_or(1).max(1);
                let mut q = p.clone();
                q.spans[i] = (q.spans[i] + 1) % total;
                push("corrupt_span", format!("op {i}: span bumped"), q);
            }
        }
        // Retargeted outputs.
        for (k, o) in p.outputs.iter().enumerate() {
            let no = match *o {
                Src::Reg(r) if p.nregs > 1 => Src::Reg((r + 1) % p.nregs as u32),
                Src::Col(c) => Src::Col(c + 1),
                Src::Const(c) if p.consts.len() > 1 => Src::Const((c + 1) % p.consts.len() as u32),
                _ => continue,
            };
            let mut q = p.clone();
            q.outputs[k] = no;
            push("retarget_output", format!("output {k}: {o:?} => {no:?}"), q);
        }
        out
    }

    /// Swap a binary op's operands, or an `If` merge's branches (not its
    /// condition).
    fn swap_operands(op: &Op) -> Option<Op> {
        let mut q = op.clone();
        match slots(&mut q).reads {
            [Some(a), Some(b), None] => std::mem::swap(a, b),
            [_, Some(t), Some(e)] if matches!(op, Op::RangeIfMerge { .. }) => std::mem::swap(t, e),
            _ => return None,
        }
        Some(q)
    }

    fn redirect_first_operand(op: &Op, p: &Program) -> Option<Op> {
        let mut q = op.clone();
        let [Some(s), ..] = slots(&mut q).reads else { return None };
        *s = match *s {
            Src::Reg(r) if p.nregs > 1 => Src::Reg((r + 1) % p.nregs as u32),
            Src::Col(c) => Src::Col(c + 1),
            Src::Const(c) if p.consts.len() > 1 => Src::Const((c + 1) % p.consts.len() as u32),
            _ => return None,
        };
        Some(q)
    }

    /// Run a mutant through both tiers and, when nothing rejects it,
    /// the differential oracle against the original on the supplied row
    /// corpus. Oracle evaluation is only ever attempted on mutants that
    /// pass Tier A, whose guarantees (forward jumps, bounds, checked
    /// columns) make evaluation safe and terminating.
    pub fn classify(
        original: &Program,
        mutant: &Program,
        range_rows: &[Vec<RangeValue>],
        det_rows: &[Vec<Value>],
    ) -> Verdict {
        if mutant.verify().is_err() {
            return Verdict::CaughtTierA;
        }
        let baseline = original.verify_full().unwrap_or_default();
        match mutant.verify_full() {
            Err(_) => return Verdict::CaughtTierB,
            Ok(lints) => {
                let new = lints
                    .iter()
                    .any(|l| !baseline.iter().any(|b| b.kind == l.kind && b.node == l.node));
                if new {
                    return Verdict::CaughtLint;
                }
            }
        }
        let same = match original.mode() {
            Mode::Range => range_rows
                .iter()
                .all(|t| range_fingerprint(original, t) == range_fingerprint(mutant, t)),
            Mode::Det => {
                det_rows.iter().all(|t| det_fingerprint(original, t) == det_fingerprint(mutant, t))
            }
        };
        if same {
            Verdict::OracleEquivalent
        } else {
            Verdict::Missed
        }
    }

    fn range_fingerprint(p: &Program, tuple: &[RangeValue]) -> Result<Vec<RangeValue>, EvalError> {
        let mut regs = Vec::new();
        p.prepare_range_regs(&mut regs);
        p.eval_range_into(tuple, &mut regs)?;
        Ok((0..p.arity()).map(|i| p.range_output(i, tuple, &regs).clone()).collect())
    }

    fn det_fingerprint(p: &Program, tuple: &[Value]) -> Result<Vec<Value>, EvalError> {
        let mut regs = Vec::new();
        p.prepare_det_regs(&mut regs);
        p.eval_det_into(tuple, &mut regs)?;
        Ok((0..p.arity()).map(|i| p.det_output(i, tuple, &regs).clone()).collect())
    }

    /// A small mixed Int/Float/Bool oracle corpus of the given tuple
    /// width: enough value shapes to distinguish operand swaps, operand
    /// redirects, and clobbered registers on real programs.
    pub fn oracle_rows(width: usize) -> (Vec<Vec<RangeValue>>, Vec<Vec<Value>>) {
        let vals = [
            Value::Int(-3),
            Value::Int(0),
            Value::Int(2),
            Value::float(0.5),
            Value::float(-1.5),
            Value::Bool(true),
        ];
        let mut range_rows = Vec::new();
        let mut det_rows = Vec::new();
        for (r, base) in vals.iter().enumerate() {
            let mut rr = Vec::with_capacity(width);
            let mut dr = Vec::with_capacity(width);
            for c in 0..width {
                let v = &vals[(r + c) % vals.len()];
                dr.push(v.clone());
                if r % 2 == 0 {
                    rr.push(RangeValue::certain(v.clone()));
                } else {
                    // A genuinely uncertain band around the value.
                    let (lo, hi) = if v.total_cmp(base) == std::cmp::Ordering::Greater {
                        (base.clone(), v.clone())
                    } else {
                        (v.clone(), base.clone())
                    };
                    rr.push(
                        RangeValue::new(lo, v.clone(), hi)
                            .unwrap_or_else(|_| RangeValue::certain(v.clone())),
                    );
                }
            }
            range_rows.push(rr);
            det_rows.push(dr);
        }
        (range_rows, det_rows)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::{col, lit};

    fn corpus() -> Vec<Expr> {
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
            Expr::make_uncertain(col(0), col(1), col(0).add(col(1))),
            Expr::conj(vec![col(0).leq(lit(9i64)), col(1).geq(lit(-9i64))]),
            col(0),
            lit(42i64),
            lit(true).and(col(0).leq(col(1))),
            Expr::if_then_else(lit(true), col(0), col(1)),
        ]
    }

    /// Every lowered corpus program passes both tiers with zero
    /// diagnostics — the no-false-positive gate.
    #[test]
    fn corpus_verifies_clean() {
        for e in corpus() {
            for p in [Program::compile_range(&e), Program::compile_det(&e)] {
                let lints = p.verify_full().unwrap_or_else(|err| {
                    panic!("verifier rejected a fresh lowering of `{e}`: {err}")
                });
                assert!(lints.is_empty(), "lints on fresh lowering of `{e}`: {lints:?}");
            }
        }
        let many = corpus();
        for p in [Program::compile_range_many(&many), Program::compile_det_many(&many)] {
            assert_eq!(p.verify_full().unwrap(), vec![]);
        }
    }

    /// Every mutation-harness corruption of every corpus program is
    /// caught by Tier A/B, surfaces a new lint, or is provably
    /// behavior-preserving — and the corpus exercises every class.
    #[test]
    fn mutants_detected_or_equivalent() {
        let (range_rows, det_rows) = mutate::oracle_rows(2);
        let mut by_class: BTreeMap<&'static str, [usize; 2]> = BTreeMap::new();
        for e in corpus() {
            for p in [Program::compile_range(&e), Program::compile_det(&e)] {
                for m in mutate::mutants(&p) {
                    let v = mutate::classify(&p, &m.program, &range_rows, &det_rows);
                    let slot = by_class.entry(m.class).or_default();
                    slot[0] += 1;
                    if v == mutate::Verdict::Missed {
                        slot[1] += 1;
                    }
                    assert_ne!(
                        v,
                        mutate::Verdict::Missed,
                        "undetected behavior-changing mutant of `{e}` ({}: {})",
                        m.class,
                        m.detail
                    );
                }
            }
        }
        for class in [
            "retarget_jump",
            "drop_checkcol",
            "swap_operands",
            "clobber_register",
            "redirect_operand",
            "corrupt_span",
            "retarget_output",
        ] {
            assert!(by_class.contains_key(class), "corpus never exercised {class}");
        }
    }

    /// Tier B lints: statically certain hazards fire, literal
    /// conditions stay quiet.
    #[test]
    fn lint_inventory() {
        // Certain division by zero (range: the spans-zero guard).
        let p = Program::compile_range(&lit(1i64).div(lit(0i64)));
        let lints = p.verify_full().unwrap();
        assert!(lints.iter().any(|l| l.kind == LintKind::CertainDivByZero), "{lints:?}");
        let p = Program::compile_det(&lit(1i64).div(lit(0i64)));
        let lints = p.verify_full().unwrap();
        assert!(lints.iter().any(|l| l.kind == LintKind::CertainDivByZero), "{lints:?}");

        // Certain type error: arithmetic on a boolean constant.
        let p = Program::compile_range(&lit(true).add(col(0)));
        let lints = p.verify_full().unwrap();
        assert!(lints.iter().any(|l| l.kind == LintKind::CertainTypeError), "{lints:?}");

        // A computed-constant branch condition lints ...
        let e = lit(1i64).leq(lit(2i64)).and(col(0).gt(lit(0i64)));
        let p = Program::compile_det(&e);
        let lints = p.verify_full().unwrap();
        assert!(lints.iter().any(|l| l.kind == LintKind::ConstantCondition), "{lints:?}");
        // ... a literal one does not.
        let p = Program::compile_det(&lit(true).and(col(0).gt(lit(0i64))));
        assert_eq!(p.verify_full().unwrap(), vec![]);
        let p = Program::compile_range(&Expr::if_then_else(lit(true), col(0), col(1)));
        assert_eq!(p.verify_full().unwrap(), vec![]);
    }

    /// A product of an infinite band and a zero: every corner is
    /// `∞ · 0 = NaN`, so the band is the full line — not the empty
    /// `[∞, −∞]` a NaN-skipping fold left, which Tier B rejected as a
    /// bound violation. `RangeDiv` of two `If`-joined bands is a range
    /// program's full line; an overflowing product reaches one in both
    /// modes.
    #[test]
    fn infinite_band_times_zero_verifies() {
        let cond = || col(0).gt(lit(1i64));
        let ratio = {
            let arm = || Expr::if_then_else(cond(), lit(1i64), lit(2i64));
            arm().div(arm())
        };
        let overflow = Expr::if_then_else(cond(), lit(1e308), lit(-1e308)).mul(lit(10.0));
        for zero in [lit(0i64), lit(0.0)] {
            for x in [&ratio, &overflow] {
                for e in [x.clone().mul(zero.clone()), zero.clone().mul(x.clone())] {
                    for p in [Program::compile_range(&e), Program::compile_det(&e)] {
                        assert_eq!(p.verify_full(), Ok(vec![]), "`{e}` in {:?} mode", p.mode());
                    }
                }
            }
        }
    }

    /// Tier A is `O(ops · depth)`: a flat 2 000-term predicate — depth
    /// 2 000, built by iteration as the SQL parser does — compiles (Tier A
    /// inside), passes both tiers and evaluates over a row well inside a
    /// bound the cubic pass missed by minutes (12 s for 800 terms in a
    /// release build). The lowerer recurses once per level, so the stack
    /// is sized for the depth, not left to the harness's 2 MiB.
    #[test]
    fn tier_a_stays_quadratic_on_a_2000_term_chain() {
        let check = || {
            let started = std::time::Instant::now();
            let sum = (1..2000).fold(col(0), |e, _| e.add(col(0)));
            let p = Program::compile_range(&sum.gt(lit(0i64)));
            assert_eq!(p.verify_full().unwrap(), vec![]);
            let row = [RangeValue::range(1i64, 2i64, 3i64)];
            assert_eq!(p.eval_range_bool3(&row, &mut Vec::new()), Ok((true, true, true)));
            let took = started.elapsed();
            assert!(took < std::time::Duration::from_secs(10), "took {took:?}");
        };
        std::thread::Builder::new().stack_size(64 << 20).spawn(check).unwrap().join().unwrap();
    }

    /// Diagnostics name the offending op and its source node.
    #[test]
    fn diagnostics_name_op_and_node() {
        let e = col(0).add(col(1)).div(col(1));
        let p = Program::compile_range(&e);
        let mut found = false;
        for m in mutate::mutants(&p) {
            if let Err(err) = m.program.verify() {
                assert!(err.op.is_some() || err.node.is_none(), "op-less error with node: {err}");
                if err.op.is_some() && err.source.is_some() {
                    found = true;
                }
            }
        }
        assert!(found, "no mutant produced an op+source diagnostic");
    }
}
