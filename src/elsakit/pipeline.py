"""End-to-end in-context ridge descent built from attention blocks.

Every pipeline is one :class:`Program`: a prompt layout, a step module
run T times, and a readout module run once. A module is a sequence of
blocks, each a tuple of heads summed on the previous block's output,
followed by the one skip connection, which adds the module's input prompt
back. One run loop, :func:`run_program`, executes any program. Three
builders produce them; no block carries an all-zero padding head and no
block returns its input unchanged:

* designed: a (d+1)-by-s prompt, s = 2n+d+3, carrying sqrt(eta)-scaled
  copies of X and y, a sqrt(eta*lam) identity, the query u, and the
  evolving coefficient column. The step is one 3-head plain-attention
  block and the readout 1 head; only the coefficient column changes.
* enumerated: a d-by-s prompt, s = 2n+2d+3, listing X, a padded target
  block, lam*I, sqrt(eta)*I, u, a scratch column for the prediction, and
  the coefficient column, with no coupled scalings. The step is a 4-head
  bias-extended block followed by a 1-head contraction; the readout is
  one 1-head block.
* zero-bias wrap: the designed program with every head bias-extended
  (zero biases), showing that the extended form subsumes the plain one.

Programs are built once and shared across iterations; the readout writes
u^T w_T into the program's reserved cell. The run loop executes each
program's compiled view (:attr:`Program.compiled`): every head restricted
to the rows and columns its weights touch, compiled once per program.
:func:`run_pipeline` keeps only that view, once per form and (n, d). A
step changes only the columns its last block writes, so the loop binds
the first step block to the initial prompt once: every projection that
reads none of those columns is evaluated once, not at every step. The
per-step :func:`step` and the literal dense forwards in
:mod:`elsakit.attention` stay the oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional, Union

import numpy as np

from .attention import CompiledHead, ElsaParams, LsaParams, compile_head, compiled_forward
from .matrix import BlockSpec, DimensionMismatch, Matrix, block_read, block_write, eye_block
from .matrix import identity, scale, transpose, zeros
from .maskmove import MskMovSpec, mskmov_selectors
from .ridge import RidgeProblem, SingularSystem, finite_prefix, gd_run, predict, ridge_closed_form


class LayoutMismatch(ValueError):
    """A state was fed to a step or readout for the other layout."""


@dataclass(frozen=True)
class DesignedLayout:
    n: int
    d: int

    @property
    def s(self) -> int:
        return 2 * self.n + self.d + 3

    @property
    def shape(self) -> tuple[int, int]:
        return (self.d + 1, self.s)

    @property
    def w_col(self) -> int:
        return self.s


@dataclass(frozen=True)
class EnumeratedLayout:
    n: int
    d: int

    @property
    def s(self) -> int:
        return 2 * self.n + 2 * self.d + 3

    @property
    def shape(self) -> tuple[int, int]:
        return (self.d, self.s)

    @property
    def w_col(self) -> int:
        return self.s

    @property
    def z_col(self) -> int:
        return self.s - 1


Layout = Union[DesignedLayout, EnumeratedLayout]
Block = tuple[Union[LsaParams, ElsaParams], ...]
CompiledModule = tuple[tuple[CompiledHead, ...], ...]


class CompiledProgram(NamedTuple):
    """A program's layout and cell with both modules compiled; the run loop needs nothing else."""

    layout: Layout
    step: CompiledModule
    readout: CompiledModule
    cell: tuple[int, int]


@dataclass(frozen=True)
class PipelineState:
    """The evolving prompt matrix and the layout it follows."""

    h: Matrix
    layout: Layout

    def __post_init__(self):
        if self.h.shape != self.layout.shape:
            raise LayoutMismatch(
                f"prompt {self.h.shape} does not match layout {self.layout.shape}"
            )


@dataclass(frozen=True)
class Program:
    """Weights of one pipeline, shared across all steps.

    ``step`` and ``readout`` are modules: blocks run in sequence, then the
    skip connection. A block is a tuple of heads whose forwards are summed;
    every head is nonzero. The readout leaves the prediction in ``cell``
    (1-based row, column).
    """

    layout: Layout
    step: tuple[Block, ...]
    readout: tuple[Block, ...]
    cell: tuple[int, int]

    @cached_property
    def compiled(self) -> CompiledProgram:
        """Both modules with every head compiled once; it lives and dies with the program."""

        def compile_module(blocks: tuple[Block, ...]) -> CompiledModule:
            return tuple(tuple(compile_head(p) for p in block) for block in blocks)

        modules = (compile_module(self.step), compile_module(self.readout))
        return CompiledProgram(self.layout, *modules, self.cell)


def _moved_selectors(spec: MskMovSpec) -> tuple[Matrix, Matrix]:
    """(w1, w2) such that w1^T (H^T H) w2 applies the mask-and-move of spec."""
    w, v = mskmov_selectors(spec)
    return transpose(w), v


# ---------------------------------------------------------------------------
# Designed layout
# ---------------------------------------------------------------------------


def build_designed_input(p: RidgeProblem) -> PipelineState:
    """Assemble the step-0 prompt for the designed layout."""
    n, d = p.n, p.d
    layout = DesignedLayout(n=n, d=d)
    s = layout.s
    sqrt_eta = math.sqrt(p.eta)
    sqrt_eta_lam = math.sqrt(p.eta) * math.sqrt(p.lam)
    h = zeros(d + 1, s)
    h = block_write(h, BlockSpec(1, d, 1, n), scale(transpose(p.x), sqrt_eta))
    h = block_write(h, BlockSpec(d + 1, d + 1, n + 1, 2 * n), scale(transpose(p.y), sqrt_eta))
    h = block_write(h, BlockSpec(d + 1, d + 1, 2 * n + 1, 2 * n + 1), Matrix([[1.0]]))
    h = block_write(
        h,
        BlockSpec(1, d, 2 * n + 2, 2 * n + d + 1),
        scale(identity(d), sqrt_eta_lam),
    )
    h = block_write(h, BlockSpec(1, d, 2 * n + d + 2, 2 * n + d + 2), p.u)
    h = block_write(h, BlockSpec(1, d, s, s), p.w0)
    return PipelineState(h=h, layout=layout)


def build_designed_weights(n: int, d: int) -> Program:
    """Three step heads summing to the negated scaled gradient in the w column.

    Head 1 extracts the scaled targets against the scaled design (the X^T y
    term), head 2 the scaled fitted values against the negated design (the
    X^T X w term), head 3 the ridge column against the negated ridge identity
    (the lam*w term). The readout, run once after the last step, moves
    u^T w_T into the bottom-right cell.
    """
    layout = DesignedLayout(n=n, d=d)
    s = layout.s

    w13 = eye_block(s, s, BlockSpec(1, n, 1, n))
    w11, w12 = _moved_selectors(
        MskMovSpec(i=n + 1, j=2 * n, k=2 * n + 1, l=2 * n + 1, m=s, n=s, a=-n, b=s - (2 * n + 1))
    )
    head1 = LsaParams(w1=w11, w2=w12, w3=w13)

    w21, w22 = _moved_selectors(MskMovSpec(i=1, j=n, k=s, l=s, m=s, n=s))
    head2 = LsaParams(w1=w21, w2=w22, w3=scale(w13, -1.0))

    w31, w32 = _moved_selectors(
        MskMovSpec(i=2 * n + 2, j=2 * n + d + 1, k=s, l=s, m=s, n=s, a=-(2 * n + 1), b=0)
    )
    w33 = eye_block(s, s, BlockSpec(2 * n + 2, 2 * n + d + 1, 1, d), -1.0)
    head3 = LsaParams(w1=w31, w2=w32, w3=w33)

    r1, r2 = _moved_selectors(
        MskMovSpec(i=2 * n + d + 2, j=2 * n + d + 2, k=s, l=s, m=s, n=s, a=1, b=0)
    )
    r3 = eye_block(s, s, BlockSpec(2 * n + 1, 2 * n + 1, s, s))

    return Program(
        layout=layout,
        step=((head1, head2, head3),),
        readout=((LsaParams(w1=r1, w2=r2, w3=r3),),),
        cell=(d + 1, s),
    )


# ---------------------------------------------------------------------------
# Enumerated layout
# ---------------------------------------------------------------------------


def build_enumerated_input(p: RidgeProblem) -> PipelineState:
    """Assemble the step-0 prompt for the enumerated layout."""
    n, d = p.n, p.d
    layout = EnumeratedLayout(n=n, d=d)
    s = layout.s
    h = zeros(d, s)
    h = block_write(h, BlockSpec(1, d, 1, n), transpose(p.x))
    # Padded target block: y fills the last row, the d-1 rows above stay zero.
    h = block_write(h, BlockSpec(d, d, n + 1, 2 * n), transpose(p.y))
    h = block_write(h, BlockSpec(1, d, 2 * n + 1, 2 * n + d), scale(identity(d), p.lam))
    h = block_write(
        h, BlockSpec(1, d, 2 * n + d + 1, 2 * n + 2 * d), scale(identity(d), math.sqrt(p.eta))
    )
    h = block_write(h, BlockSpec(1, d, 2 * n + 2 * d + 1, 2 * n + 2 * d + 1), p.u)
    h = block_write(h, BlockSpec(1, d, s, s), p.w0)
    return PipelineState(h=h, layout=layout)


def build_enumerated_weights(n: int, d: int) -> Program:
    """A 4-head block and a 1-head block per step, plus the readout pair.

    First block, head by head: the fitted-values term, the ridge term, the
    negated cross term from the padded target block, and a marker head
    placing -eta*I next to the scratch columns. The second block is the one
    head contracting the marker against the assembled gradient, leaving
    -eta*dw in the last column. The readout is one 1-head block moving u^T w
    into the scratch cell.
    """
    layout = EnumeratedLayout(n=n, d=d)
    s = layout.s
    zs = zeros(s, s)
    zb = zeros(d, s)

    w11, w12 = _moved_selectors(MskMovSpec(i=1, j=n, k=s, l=s, m=s, n=s))
    h1 = ElsaParams(
        w1=w11, w2=w12, w3=eye_block(s, s, BlockSpec(1, n, 1, n)), b1=zb, b2=zb, b3=zb
    )

    w21, w22 = _moved_selectors(
        MskMovSpec(i=2 * n + 1, j=2 * n + d, k=s, l=s, m=s, n=s, a=-2 * n, b=0)
    )
    h2 = ElsaParams(
        w1=w21, w2=w22, w3=zs, b1=zb, b2=zb, b3=eye_block(d, s, BlockSpec(1, d, 1, d))
    )

    h3 = ElsaParams(
        w1=eye_block(s, s, BlockSpec(n + 1, 2 * n, s - n + 1, s)),
        w2=zs,
        w3=eye_block(s, s, BlockSpec(1, n, s - n + 1, s)),
        b1=zb,
        b2=eye_block(d, s, BlockSpec(1, d, s - d + 1, s), -1.0),
        b3=zb,
    )

    w41, w42 = _moved_selectors(
        MskMovSpec(
            i=2 * n + d + 1, j=2 * n + 2 * d, k=2 * n + d + 1, l=2 * n + 2 * d,
            m=s, n=s, a=-(2 * n + d), b=0,
        )
    )
    h4 = ElsaParams(
        w1=w41, w2=w42, w3=zs, b1=zb, b2=zb,
        b3=eye_block(d, s, BlockSpec(1, d, 1, d), -1.0),
    )

    g1, g2 = _moved_selectors(
        MskMovSpec(i=2 * n + d + 1, j=2 * n + 2 * d, k=s, l=s, m=s, n=s, a=-(2 * n + d), b=0)
    )
    contract = ElsaParams(
        w1=g1, w2=g2, w3=zs, b1=zb, b2=zb, b3=eye_block(d, s, BlockSpec(1, d, 1, d))
    )
    step_blocks = ((h1, h2, h3, h4), (contract,))

    q1, q2 = _moved_selectors(
        MskMovSpec(
            i=2 * n + 2 * d + 1, j=2 * n + 2 * d + 1, k=s, l=s,
            m=s, n=s, a=-(2 * n + 2 * d), b=-1,
        )
    )
    read1 = ElsaParams(
        w1=q1, w2=q2, w3=zs, b1=zb, b2=zb,
        b3=eye_block(d, s, BlockSpec(1, 1, 1, 1)),
    )
    return Program(layout=layout, step=step_blocks, readout=((read1,),), cell=(1, layout.z_col))


# ---------------------------------------------------------------------------
# The zero-bias wrap and the run loop
# ---------------------------------------------------------------------------


def wrap_designed_as_elsa(prog: Program) -> Program:
    """The designed program with every head bias-extended, all biases zero.

    Same blocks, same heads (3 in the step, 1 in the readout), same weights;
    the module's own skip connection needs no head. Running it reproduces
    the designed pipeline trace exactly.
    """
    zb = zeros(*prog.layout.shape)

    def wrap(blocks: tuple[Block, ...]) -> tuple[Block, ...]:
        return tuple(
            tuple(ElsaParams(w1=p.w1, w2=p.w2, w3=p.w3, b1=zb, b2=zb, b3=zb) for p in block)
            for block in blocks
        )

    return Program(
        layout=prog.layout, step=wrap(prog.step), readout=wrap(prog.readout), cell=prog.cell
    )


def _run_module(state: PipelineState, prog: CompiledProgram, blocks: CompiledModule) -> Matrix:
    if state.layout != prog.layout:
        raise LayoutMismatch(f"state layout {state.layout} != program layout {prog.layout}")
    h = state.h.array
    out = h
    for block in blocks:
        out = compiled_forward(out, block)
    return Matrix.from_array(out + h)


def step(state: PipelineState, prog: Program) -> PipelineState:
    """One descent step: the step blocks, then the skip connection."""
    h = _run_module(state, prog.compiled, prog.compiled.step)
    return PipelineState(h=h, layout=state.layout)


def readout(state: PipelineState, prog: Program) -> tuple[Matrix, float]:
    """Apply the readout module; returns the final prompt and the prediction cell."""
    h_final = _run_module(state, prog.compiled, prog.compiled.readout)
    return h_final, h_final.get(*prog.cell)


def extract_w(state: PipelineState) -> Matrix:
    """The current coefficient column of the prompt."""
    d = state.layout.d
    return block_read(state.h, BlockSpec(1, d, state.layout.w_col, state.layout.w_col))


class _BoundHead(NamedTuple):
    """A head of the first step block bound to the initial prompt.

    t1, t2 and t3 hold t1[:, k1], t2 and t3[:, k3] of a projection that
    reads no written column, or None for one evaluated each step; const
    holds the whole term when all three are bound.
    """

    head: CompiledHead
    t1: Optional[np.ndarray]
    t2: Optional[np.ndarray]
    t3: Optional[np.ndarray]
    const: Optional[np.ndarray]

    def term(self, h: np.ndarray) -> np.ndarray:
        """The head's output columns C2 on the prompt h, as compiled_forward computes them."""
        if self.const is not None:
            return self.const
        c = self.head
        t1 = c.p1.apply(h)[:, c.k1] if self.t1 is None else self.t1
        t2 = c.p2.apply(h) if self.t2 is None else self.t2
        t3 = c.p3.apply(h)[:, c.k3] if self.t3 is None else self.t3
        return t3 @ (t1.T @ t2)


def _bind(prog: CompiledProgram, state: PipelineState) -> tuple[_BoundHead, ...]:
    """The first step block with every projection that reads no written column evaluated.

    The step module's output is nonzero only in the columns its last block
    writes, so its skip connection leaves every other column of the prompt
    as it was: those columns, and every projection reading only them, are
    the same at every step.
    """
    if state.layout != prog.layout:
        raise LayoutMismatch(f"state layout {state.layout} != program layout {prog.layout}")
    h = state.h.array
    first = prog.step[0]
    for c in first:
        rows, width = c.input_shape
        if h.shape[1] != width or rows not in (None, h.shape[0]):
            raise DimensionMismatch(f"input {h.shape} != parameter shape {c.input_shape}")
    written = np.zeros(h.shape[1], dtype=bool)
    for c in prog.step[-1]:
        written[c.p2.cols] = True
    # Every step after the first reads the unwritten columns as h0 + 0.0.
    h0 = h + 0.0
    bound = []
    for c in first:
        t1, t2, t3 = (None if written[p.rows].any() else p.apply(h0) for p in (c.p1, c.p2, c.p3))
        t1 = None if t1 is None else t1[:, c.k1]
        t3 = None if t3 is None else t3[:, c.k3]
        const = t3 @ (t1.T @ t2) if all(t is not None for t in (t1, t2, t3)) else None
        bound.append(_BoundHead(c, t1, t2, t3, const))
    return tuple(bound)


def run_program(
    prog: Program, state: PipelineState, steps: int
) -> tuple[list[Matrix], Matrix, float]:
    """Run `steps` descent steps and the readout.

    Returns the coefficient trace w_0..w_T, the final prompt and the
    prediction. The loop binds the first step block to the initial prompt
    once: a projection that reads none of the columns the step writes is
    evaluated once, and a head whose three projections all are becomes one
    constant term. Each step then adds the head terms in head order, runs
    the later blocks and the skip connection on one ndarray, and equals
    :func:`step` bit for bit; :func:`step` stays the per-step oracle. A
    divergent run overflows silently, and its trace ends before the first
    non-finite coefficient column.
    """
    return _run_compiled(prog.compiled, state, steps)


def _run_compiled(prog: CompiledProgram, state: PipelineState, steps: int):
    """run_program's loop on a compiled view."""
    bound = _bind(prog, state)
    later = prog.step[1:]
    d, wc = state.layout.d, state.layout.w_col - 1
    h = state.h.array
    ws = np.empty((steps + 1, d, 1))
    ws[0] = h[:d, wc : wc + 1]
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, steps + 1):
            out = np.zeros(h.shape)
            for b in bound:
                out[:, b.head.p2.cols] += b.term(h)
            for block in later:
                out = compiled_forward(out, block)
            h = out + h
            ws[t] = h[:d, wc : wc + 1]
        h_final = _run_module(PipelineState(Matrix.from_array(h), state.layout), prog, prog.readout)
    return finite_prefix([Matrix.from_array(w) for w in ws]), h_final, h_final.get(*prog.cell)


class PipelineRun(NamedTuple):
    prediction: float
    w_trace: list[Matrix]
    report: dict


@lru_cache(maxsize=16)
def _compiled_program(form: str, n: int, d: int) -> CompiledProgram:
    """The compiled view of form's program for (n, d); the dense program is dropped."""
    build = build_designed_weights if form == "lsa" else build_enumerated_weights
    return build(n, d).compiled


def run_pipeline(p: RidgeProblem, form: str) -> PipelineRun:
    """Build the prompt, run T steps and the readout of the form's cached program view.

    The report records, per step, the infinity-norm deviation of the prompt's
    coefficient column from the plain descent recurrence (relative to
    max(1, |w_t|)), plus the closed-form prediction when the normal equations
    are solvable. A divergent run ends its deviations at the first step t
    where either coefficient column is not finite, and reports that t as
    "diverged_at" (None when every step is finite).
    """
    if form == "lsa":
        kind, state = "designed", build_designed_input(p)
    elif form == "elsa":
        kind, state = "enumerated", build_enumerated_input(p)
    else:
        raise ValueError(f"unknown pipeline form {form!r}")
    trace, _, prediction = _run_compiled(_compiled_program(form, p.n, p.d), state, p.steps)

    oracle_trace = gd_run(p)
    compared = min(len(trace), len(oracle_trace))
    wp = np.concatenate([w.array for w in trace[:compared]], axis=1)
    wo = np.concatenate([w.array for w in oracle_trace[:compared]], axis=1)
    per_step = (np.abs(wp - wo).max(axis=0) / np.maximum(1.0, np.abs(wo).max(axis=0))).tolist()
    diverged_at = len(per_step) if len(per_step) <= p.steps else None
    oracle_prediction = math.nan if diverged_at is not None else predict(oracle_trace[-1], p.u)
    try:
        closed_form_prediction = predict(ridge_closed_form(p), p.u)
    except SingularSystem:
        closed_form_prediction = None

    report = {
        "form": kind,
        "n": p.n,
        "d": p.d,
        "lambda": p.lam,
        "eta": p.eta,
        "T": p.steps,
        "prediction": prediction,
        "oracle_prediction": oracle_prediction,
        "closed_form_prediction": closed_form_prediction,
        "max_step_deviation": float(np.max(per_step)),
        "per_step_deviation": per_step,
        "diverged_at": diverged_at,
    }
    return PipelineRun(prediction=prediction, w_trace=trace, report=report)
