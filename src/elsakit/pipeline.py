"""End-to-end in-context ridge descent built from attention blocks.

Every pipeline is one :class:`Program`: a prompt layout, a step module
run T times, and a readout module run once. A module is a sequence of
blocks, each a tuple of heads summed on the previous block's output,
followed by the one skip connection, which adds the module's input prompt
back. One run loop, :func:`run_program`, executes any program. Three
builders produce them; no block carries an all-zero padding head and no
block returns its input unchanged. A layout declares its prompt once,
as named regions left to right (:meth:`DesignedLayout.declare`), which
the prompt writers fill and the builders' heads (:func:`_copy`,
:func:`_gram`, :func:`_bias`) read:

* designed, d+1 rows: x (sqrt(eta) X^T), y (sqrt(eta) y^T in the last
  row), one (a 1 in the last row), ridge (sqrt(eta lam) I), the query u
  and the coefficients w. The step is one 3-head plain-attention block and
  the readout 1 head; only w changes.
* enumerated, d rows: x (X^T), y (y^T in the last row, zeros above),
  lam (lam I), eta (sqrt(eta) I), u, z (a scratch column for the
  prediction) and w, with no coupled scalings. The step is a 4-head
  bias-extended block followed by a 1-head contraction; the readout is
  one 1-head block.
* zero-bias wrap: the designed program with every head bias-extended
  (zero biases), showing that the extended form subsumes the plain one.

Programs are built once and shared across iterations; the readout writes
u^T w_T into the program's reserved cell. The run loop executes each
program's compiled view (:attr:`Program.compiled`): every head restricted
to the rows and columns its weights touch, plus the step plan
(:func:`_step_plan`), both made once per program. :func:`run_pipeline`
keeps only that view, once per form and (n, d), and checks a run against
the problem's descent and closed form, computed once per problem object
and shared by both forms. The plan runs the whole step loop as one
generated function, bitwise the per-step :func:`step` (the argument is in
:func:`_factory`); :func:`step` and the literal dense forwards in
:mod:`elsakit.attention` stay the oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional, Union

import numpy as np

from .attention import CompiledHead, ElsaParams, EmptyHeads, Index, LsaParams, _index
from .attention import _Projection, compile_head, compiled_forward, head_term
from .matrix import BlockSpec, DimensionMismatch, Matrix, MatrixStack, block_read
from .matrix import eye_block, product_for, scale, zeros
from .ridge import BadProblemFile, RidgeProblem, finite_prefix


class LayoutMismatch(ValueError):
    """A state was fed to a step or readout for the other layout."""


class NotDesignedProgram(ValueError):
    """wrap_designed_as_elsa was given a program with biases it would drop."""


@dataclass(frozen=True)
class _Layout:
    """A prompt of n examples of d features: the regions its class declares."""

    n: int
    d: int

    @property
    def regions(self) -> Mapping[str, BlockSpec]:
        """Each region's 1-based block, by name, left to right (read-only, shared)."""
        return _region_table(type(self), self.n, self.d)[1]

    @property
    def shape(self) -> tuple[int, int]:
        return _region_table(type(self), self.n, self.d)[0]

    @property
    def s(self) -> int:
        return self.shape[1]

    @property
    def w_col(self) -> int:
        return self.regions["w"].col_lo


@lru_cache(maxsize=64)
def _region_table(kind: type, n: int, d: int) -> tuple[tuple[int, int], Mapping[str, BlockSpec]]:
    """The shape and regions of the layout class kind at (n, d), columns left to right from 1.

    Made once per (n, d), as is each region's 0-based BlockSpec.index, which
    it caches: a prompt writer only looks regions up.
    """
    regions, col = {}, 1
    for name, row_lo, row_hi, width in kind.declare(n, d):
        regions[name] = BlockSpec(row_lo, row_hi, col, col + width - 1)
        col += width
    return (max(b.row_hi for b in regions.values()), col - 1), MappingProxyType(regions)


@dataclass(frozen=True)
class DesignedLayout(_Layout):
    @staticmethod
    def declare(n: int, d: int) -> tuple[tuple[str, int, int, int], ...]:
        """Each region's (name, first row, last row, width), left to right."""
        return (("x", 1, d, n), ("y", d + 1, d + 1, n), ("one", d + 1, d + 1, 1),
                ("ridge", 1, d, d), ("u", 1, d, 1), ("w", 1, d, 1))


@dataclass(frozen=True)
class EnumeratedLayout(_Layout):
    @staticmethod
    def declare(n: int, d: int) -> tuple[tuple[str, int, int, int], ...]:
        """Each region's (name, first row, last row, width), left to right."""
        return (("x", 1, d, n), ("y", 1, d, n), ("lam", 1, d, d), ("eta", 1, d, d),
                ("u", 1, d, 1), ("z", 1, d, 1), ("w", 1, d, 1))

    @property
    def z_col(self) -> int:
        return self.regions["z"].col_lo


Layout = Union[DesignedLayout, EnumeratedLayout]
Block = tuple[Union[LsaParams, ElsaParams], ...]
CompiledModule = tuple[tuple[CompiledHead, ...], ...]


class CompiledProgram(NamedTuple):
    """A program's layout, cell, compiled modules and step plan: all the run loop needs."""

    layout: Layout
    step: CompiledModule
    readout: CompiledModule
    cell: tuple[int, int]
    plan: "StepPlan"


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
    (1-based row, column). An empty module or block raises EmptyHeads.
    """

    layout: Layout
    step: tuple[Block, ...]
    readout: tuple[Block, ...]
    cell: tuple[int, int]

    def __post_init__(self):
        if not (self.step and self.readout and all(self.step) and all(self.readout)):
            raise EmptyHeads("every module needs a block and every block a head")

    @cached_property
    def compiled(self) -> CompiledProgram:
        """Both modules with every head compiled once; it lives and dies with the program."""

        def compile_module(blocks: tuple[Block, ...]) -> CompiledModule:
            return tuple(tuple(compile_head(p) for p in block) for block in blocks)

        step = compile_module(self.step)
        plan = _step_plan(self.layout, step)
        return CompiledProgram(self.layout, step, compile_module(self.readout), self.cell, plan)


# ---------------------------------------------------------------------------
# Heads from regions
# ---------------------------------------------------------------------------


def _copy(layout: Layout, name: str, at: int, sign: float = 1.0) -> Matrix:
    """The s-by-s weight W with H W = sign * H[:, name] in columns at.., zero elsewhere.

    A sign of -1 leaves -0.0 in the block off its diagonal (see eye_block).
    """
    src, s = layout.regions[name], layout.s
    return eye_block(s, s, BlockSpec(src.col_lo, src.col_hi, at, at + src.block_cols - 1), sign)


def _gram(layout: Layout, a: str, b: str, at: tuple[int, int]) -> tuple[Matrix, Matrix]:
    """(w1, w2) with (H w1)^T (H w2) = H[:, a]^T H[:, b], its first entry at the 1-based at."""
    return _copy(layout, a, at[0]), _copy(layout, b, at[1])


def _bias(layout: Layout, at: int, size: int, sign: float = 1.0) -> Matrix:
    """A prompt-shaped bias: sign * I_size in rows 1..size and columns at.., zero elsewhere."""
    return eye_block(*layout.shape, BlockSpec(1, size, at, at + size - 1), sign)


# ---------------------------------------------------------------------------
# Designed layout
# ---------------------------------------------------------------------------


def build_designed_input(p: RidgeProblem) -> PipelineState:
    """Assemble the step-0 prompt for the designed layout, every region written into one array.

    Raises BadProblemFile when a scaled entry overflows: sqrt(eta) X,
    sqrt(eta) y or sqrt(eta lam) is not finite.
    """
    layout = DesignedLayout(n=p.n, d=p.d)
    r = layout.regions
    h = np.zeros(layout.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        sqrt_eta = math.sqrt(p.eta)
        h[r["x"].index] = sqrt_eta * p.x.array.T
        h[r["y"].index] = sqrt_eta * p.y.array.T
        h[r["one"].index] = 1.0
        h[r["ridge"].index] = (sqrt_eta * math.sqrt(p.lam)) * np.eye(p.d)
    # u and w are still zero here.
    if not np.isfinite(h).all():
        raise BadProblemFile("the designed prompt is not finite: sqrt(eta) X, sqrt(eta) y "
                             "or sqrt(eta lambda) overflows")
    h[r["u"].index] = p.u.array
    h[r["w"].index] = p.w0.array
    return PipelineState(h=Matrix.from_array(h), layout=layout)


def build_designed_weights(n: int, d: int) -> Program:
    """Three step heads summing to the negated scaled gradient in the w column.

    Writing a region's name for its columns of H, each head t3 (t1^T t2)
    places a gram of two regions in w: x (y^T one) is the X^T y term,
    -x (x^T w) the X^T X w term and -ridge (ridge^T w) the lam*w term, each
    scaled by eta through the prompt. The readout, run once after the last
    step, is the head one (u^T w), which puts u^T w_T in the one row's w
    cell.
    """
    layout = DesignedLayout(n=n, d=d)
    w = layout.w_col
    x = _copy(layout, "x", 1)
    step_block = (LsaParams(*_gram(layout, "y", "one", (1, w)), x),
                  LsaParams(*_gram(layout, "x", "w", (1, w)), scale(x, -1.0)),
                  LsaParams(*_gram(layout, "ridge", "w", (1, w)), _copy(layout, "ridge", 1, -1.0)))
    read = LsaParams(*_gram(layout, "u", "w", (w, w)), _copy(layout, "one", w))
    return Program(layout, (step_block,), ((read,),), cell=(layout.regions["one"].row_lo, w))


# ---------------------------------------------------------------------------
# Enumerated layout
# ---------------------------------------------------------------------------


def build_enumerated_input(p: RidgeProblem) -> PipelineState:
    """Assemble the step-0 prompt for the enumerated layout, every region written into one array."""
    layout = EnumeratedLayout(n=p.n, d=p.d)
    r = layout.regions
    h = np.zeros(layout.shape)
    h[r["x"].index] = p.x.array.T
    # y fills the last row of its region; the rows above stay zero.
    h[r["y"].index][-1] = p.y.array[:, 0]
    h[r["lam"].index] = p.lam * np.eye(p.d)
    h[r["eta"].index] = math.sqrt(p.eta) * np.eye(p.d)
    h[r["u"].index] = p.u.array
    h[r["w"].index] = p.w0.array
    return PipelineState(h=Matrix.from_array(h), layout=layout)


def build_enumerated_weights(n: int, d: int) -> Program:
    """A 4-head block and a 1-head block per step, plus the readout pair.

    Writing a region's name for its columns of H and I for a bias identity,
    the first block's heads are the fitted-values term x (x^T w), the ridge
    term I (lam^T w), the negated cross term x (y^T (-I)), placed in the
    last d columns so that only w is nonzero, and a marker head -I (eta^T
    eta) placing -eta*I in the eta columns. The second block is the one
    head I (eta^T w) contracting the marker against the assembled gradient,
    leaving -eta*dw in w. The readout is one 1-head block moving u^T w into
    row 1 of z.
    """
    layout = EnumeratedLayout(n=n, d=d)
    w, z, eta = layout.w_col, layout.z_col, layout.regions["eta"].col_lo
    zs, zb = zeros(layout.s, layout.s), zeros(*layout.shape)

    def head(w1, w2, w3=zs, b2=zb, b3=zb) -> ElsaParams:
        return ElsaParams(w1=w1, w2=w2, w3=w3, b1=zb, b2=b2, b3=b3)

    first = (head(*_gram(layout, "x", "w", (1, w)), w3=_copy(layout, "x", 1)),
             head(*_gram(layout, "lam", "w", (1, w)), b3=_bias(layout, 1, d)),
             head(_copy(layout, "y", w - n + 1), zs, _copy(layout, "x", w - n + 1),
                  b2=_bias(layout, w - d + 1, d, -1.0)),
             head(*_gram(layout, "eta", "eta", (1, eta)), b3=_bias(layout, 1, d, -1.0)))
    contract = head(*_gram(layout, "eta", "w", (1, w)), b3=_bias(layout, 1, d))
    read = head(*_gram(layout, "u", "w", (1, z)), b3=_bias(layout, 1, 1))
    return Program(layout, (first, (contract,)), ((read,),), cell=(1, z))


# ---------------------------------------------------------------------------
# The zero-bias wrap and the run loop
# ---------------------------------------------------------------------------


def wrap_designed_as_elsa(prog: Program) -> Program:
    """The designed program with every head bias-extended, all biases zero.

    Same blocks, same heads (3 in the step, 1 in the readout), same weights;
    the module's own skip connection needs no head. Running it reproduces
    the designed pipeline trace exactly. A program on another layout, or
    with a head that is not plain LsaParams, raises NotDesignedProgram: its
    biases would be dropped.
    """
    kinds = {type(p) for block in prog.step + prog.readout for p in block}
    if not isinstance(prog.layout, DesignedLayout) or kinds != {LsaParams}:
        raise NotDesignedProgram(f"not a plain designed program: {prog.layout}, heads "
                                 f"{sorted(k.__name__ for k in kinds)}")
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
    return block_read(state.h, state.layout.regions["w"])


class _PlanBlock(NamedTuple):
    """One step block split into the projections and columns that vary and those that do not."""

    slots: tuple[_Projection, ...]  # head i's t1, t2 and t3 are slots 3i, 3i+1 and 3i+2
    varying: tuple[int, ...]  # the slots evaluated at every step
    eyes: tuple[bool, ...]  # per head: its t3 is the bias identity (CompiledHead.eye)
    cols: Index  # A: the output columns the block's accumulator holds
    fresh: Index  # the varying columns, as positions in A: they start each step at 0.0


class StepPlan(NamedTuple):
    """The step module as the run loop executes it; see :func:`_step_plan`."""

    cols: Index  # S: the prompt columns the loop's state holds
    w: int  # the coefficient column's position in S
    blocks: tuple[_PlanBlock, ...]
    bind: Callable  # the run factory, made by _factory


def _mask(width: int, *indexes: Index) -> np.ndarray:
    m = np.zeros(width, dtype=bool)
    for ix in indexes:
        m[ix] = True
    return m


def _whole(ix: Optional[Index], size: int) -> Optional[Index]:
    """None for an index that keeps all size positions in order, else ix."""
    return None if isinstance(ix, slice) and ix == slice(0, size) else ix


def _narrow(rows: Index, source: np.ndarray, width: int) -> Optional[Index]:
    """The columns rows as positions in the sorted columns source, which hold them all.

    An index array stays one: indexing with it gathers a copy in the same
    memory order as on the full input, and a product's rounding follows
    that order.
    """
    at = np.searchsorted(source, np.arange(width)[rows])
    return _whole(_index(at), source.size) if isinstance(rows, slice) else at


def _step_plan(layout: Layout, step: CompiledModule) -> StepPlan:
    """Which projections and columns of the step module change from one step to the next.

    The module's output is nonzero only in the columns W its last block
    writes, so the skip connection leaves every other prompt column as it
    was. Within a block, a projection that reads no varying input column is
    bound, and a head whose three projections are bound is a constant term;
    the block's varying output columns are those its other heads write, and
    they are the next block's varying input (W for the first block). Each
    slot is its head's own projection, evaluated by
    :meth:`~elsakit.attention._Projection.apply`: a varying one's rows are
    positions in the block's narrow input, a bound one's columns of the
    whole block input, and rows and k are None where they would keep every
    column. The loop's state holds the prompt columns S: W, the coefficient
    column and whatever the first block's varying projections read. Block
    b's accumulator holds its varying columns and whatever block b+1's
    varying projections read; the last block's holds S. The run factory
    (:func:`_factory`) is made here, once, and a step head whose input shape
    differs from the layout's raises DimensionMismatch.
    """
    height, width = layout.shape
    for c in (c for block in step for c in block):
        if c.input_shape[1] != width or c.input_shape[0] not in (None, height):
            raise DimensionMismatch(f"step head shape {c.input_shape} != layout {layout.shape}")
    every = np.arange(width)
    varying_in = _mask(width, *(c.p2.cols for c in step[-1]))
    flags, reads, outs = [], [], []
    for block in step:
        f = [tuple(bool(varying_in[p.rows].any()) for p in (c.p1, c.p2, c.p3)) for c in block]
        rows = (p.rows for c, fc in zip(block, f) for p, v in zip((c.p1, c.p2, c.p3), fc) if v)
        varying_in = _mask(width, *(c.p2.cols for c, fc in zip(block, f) if any(fc)))
        flags.append(f)
        reads.append(_mask(width, *rows))
        outs.append(varying_in)
    state = _mask(width, *(c.p2.cols for c in step[-1]), layout.w_col - 1) | reads[0]
    held = [outs[b] | reads[b + 1] for b in range(len(step) - 1)] + [state]

    blocks, code = [], []
    for b, block in enumerate(step):
        source, cols = every[state if b == 0 else held[b - 1]], every[held[b]]
        slots, varying, heads = [], [], []
        for c, fc in zip(block, flags[b]):
            for p, v in zip((c.p1, c.p2, c.p3), fc):
                if v:
                    varying.append(len(slots))
                rows = _narrow(p.rows, source, width) if v else _whole(p.rows, width)
                slots.append(p._replace(rows=rows, k=_whole(p.k, p.w.shape[1])))
            # t1^T t2 is (m, height) by (height, .) and t3 (t1^T t2) is (height, m) by (m, .),
            # so one pick serves both.
            m = every[: c.p1.w.shape[1]][c.p1.k].size
            heads.append((product_for(height, m), (m, c.p2.w.shape[1]), c.eye))
        adds = []
        for i, (c, fc) in enumerate(zip(block, flags[b])):
            written = every[c.p2.cols]
            keep = np.ones(written.size, dtype=bool) if any(fc) else outs[b][written]
            if keep.any():
                sel = None if any(fc) else _index(np.flatnonzero(keep))
                adds.append((i, _whole(_index(np.searchsorted(cols, written[keep])), cols.size),
                             sel))
        fresh = _index(np.searchsorted(cols, every[outs[b]]))
        eyes = tuple(c.eye for c in block)
        blocks.append(_PlanBlock(tuple(slots), tuple(varying), eyes, _index(cols), fresh))
        # A block's start is all +0.0 when every accumulator column is fresh and no constant
        # term comes before its first varying one.
        zero = bool(adds) and adds[0][2] is None and bool(outs[b][cols].all())
        code.append((slots, varying, heads, adds, (height, cols.size), zero))
    position = int(np.searchsorted(every[state], layout.w_col - 1))
    return StepPlan(_index(every[state]), position, tuple(blocks), _factory(code))


def _unit(slot: _Projection) -> bool:
    """A slot that is its narrow input: weight [[1.0]], no bias and no k, on every row."""
    return (slot.rows is None and slot.b is None and slot.k is None
            and slot.w.shape == (1, 1) and slot.w[0, 0] == 1.0)


def _factory(code: list) -> Callable:
    """The plan's run factory bind(starts, values, consts), made by one exec.

    code holds, per step block, its :class:`_PlanBlock` slots and varying
    slots; per head, the product of its t1^T t2 and t3 (t1^T t2), the shape
    of t1^T t2 and whether its t3 is the bias identity (:func:`compile_head`);
    its (head, at, sel) additions in head order, the accumulator columns each
    term lands in and, for a constant head, which of its columns vary; its
    accumulator's shape; and whether its start is all +0.0. bind's arguments
    are what :func:`_bind` computes for a run, one entry per block. bind adds
    each block's constant terms before its first varying one into its start,
    in the order each step would add them, allocates every product and
    accumulator buffer once, and returns run(x, hs). run's body is the whole
    step loop, one pass per out in hs[1:], written out as straight-line code
    with the products, order and parenthesisation of
    :meth:`~elsakit.attention._Projection.apply` and :func:`compiled_forward`:
    each product is dot(a, b, buffer), each sum add(acc, term, acc), and the
    skip x = add(acc, x, out), so that out becomes the next step's input.
    Block b reads block b-1's accumulator. When every accumulator holds one
    column and every varying slot is a unit t2 (:func:`_unit`), the loop runs
    on 1-d vectors, whose products and sums give the bits of the (rows, 1)
    columns. Any varying slot that is not a unit calls its apply. When the
    first varying term covers every column, the accumulator is start + term,
    the same sum as a copy of start followed by an in-place add. A head
    whose t3 is the bias identity adds t1^T t2 itself, as
    :func:`compiled_forward` does (see :func:`compile_head`).

    The rewrites of the per-step :func:`step` below replace a value v' by a
    v that differs from it at most in the sign of zero entries. Sums and
    products carry such a difference on only as the sign of a zero, inf and
    NaN included (0 * inf is NaN for either zero). The skip clears it: x holds
    no -0.0 (h + 0.0 at t = 1, then sums with x), so acc + x has the same bits
    for either sign of a zero acc, and every run, finite or not, is bitwise
    :func:`step`'s.

    * A unit slot computes x @ [[1.0]], x + 0.0: it is x itself.
    * A block whose start is all +0.0 drops start +, which only turns -0.0
      into +0.0: its accumulator starts at the first varying term.
    * The skip adds the step's input x, where :func:`step` adds the state
      hs[t-1]. For t >= 2 x is hs[t-1]. At t = 1 x is h + 0.0, and
      (a + 0.0) + b is a + (b + 0.0) bit for bit: both differ from a + b
      only when a and b are -0.0, and then both are +0.0.

    The plan's arrays and products are the factory's globals.
    """
    cells = {"add": np.add, "copyto": np.copyto, "empty": np.empty}
    prologue, body = [], []
    flat = all(shape[1] == 1 and all(i % 3 == 1 and _unit(slots[i]) for i in varying)
               for slots, varying, _, _, shape, _ in code)
    col = "[:, 0]" if flat else ""

    def cell(value, name: str = "") -> str:
        name = name or f"a{len(cells)}"
        cells[name] = value
        return name

    def buffer(*shape: int) -> str:
        return f"empty({shape[:1] if flat else shape})"

    for b, (slots, varying, heads, adds, shape, zero) in enumerate(code):
        source, acc, operands = "x" if b == 0 else f"acc{b - 1}", f"acc{b}", {}
        terms = any(sel is None for _, _, sel in adds)
        prologue += [f"s{b} = starts[{b}]{col}", f"{acc} = {buffer(*shape)}" if terms
                     else f"{acc} = s{b}"]
        for i in varying:
            if _unit(slots[i]):
                operands[i] = f"{source}.T" if slots[i].transposed else source
            else:
                body.append(f"v{b}_{i} = {cell(slots[i].apply)}({source})")
                operands[i] = f"v{b}_{i}"

        def operand(r: int) -> str:
            if r not in operands:
                prologue.append(f"b{b}_{r} = values[{b}][{r}]")
                operands[r] = f"b{b}_{r}"
            return operands[r]

        first = False
        for head, at, sel in adds:
            into = "" if at is None else f"[:, {cell(at)}]"
            if sel is not None:
                term = f"consts[{b}][{head}][:, {cell(sel)}]{col}"
                if not first:
                    # A constant term before the first varying one: added into start, once.
                    prologue.append(f"s{b}{into} += {term}")
                    continue
                prologue.append(f"c{b}_{head} = {term}")
                term = f"c{b}_{head}"
            else:
                f, (m, width), eye = heads[head]
                f, mid, term = cell(f, f.__name__), f"m{b}_{head}", f"t{b}_{head}"
                whole = not first and at is None
                if eye and whole:
                    mid = acc
                else:
                    prologue.append(f"{mid} = {buffer(m, width)}")
                body.append(f"{f}({operand(3 * head)}, {operand(3 * head + 1)}, {mid})")
                if whole:
                    if not eye:
                        body.append(f"{f}({operand(3 * head + 2)}, {mid}, {acc})")
                    body += [] if zero else [f"add(s{b}, {acc}, {acc})"]
                    first = True
                    continue
                if eye:
                    term = mid
                else:
                    prologue.append(f"{term} = {buffer(shape[0], width)}")
                    body.append(f"{f}({operand(3 * head + 2)}, {mid}, {term})")
            if not first:
                body.append(f"copyto({acc}, s{b})")
                first = True
            body.append(f"{acc}{into} += {term}" if into else f"add({acc}, {term}, {acc})")
    body.append(f"x = add(acc{len(code) - 1}, x, out)")
    loop = ("    x = x[:, 0]", "    for out in hs[1:, :, 0]:") if flat else (
        "    for out in hs[1:]:",)
    lines = (*prologue, "def run(x, hs):", *loop, *(f"        {line}" for line in body),
             "return run")
    exec("def bind(starts, values, consts):\n" + "".join(f"    {line}\n" for line in lines),
         cells)
    return cells.pop("bind")


def _bind(plan: StepPlan, h0: np.ndarray) -> Callable:
    """The plan bound to the prompt h0: its run factory called once, for one run.

    Block by block, the bound slots read the block's input with only its
    constant columns filled in, by :meth:`~elsakit.attention._Projection.apply`:
    h0 for the first block, then the previous block's constant heads summed
    in head order, each term as in :func:`compiled_forward`. A block's
    accumulator starts at 0.0 in the varying columns, and the factory
    (:func:`_factory`) adds the leading constant terms into that start.
    Returns run(x, hs), the step loop.
    """
    starts, values, consts = [], [], []
    x = h0
    for blk in plan.blocks:
        values.append([None if i in blk.varying else s.apply(x) for i, s in enumerate(blk.slots)])
        out = np.zeros(x.shape)
        consts.append({})
        for i in range(len(blk.slots) // 3):
            t1, t2, t3 = values[-1][3 * i : 3 * i + 3]
            if t1 is not None and t2 is not None and t3 is not None:
                consts[-1][i] = head_term(blk.eyes[i], t1, t2, t3)
                out[:, blk.slots[3 * i + 1].cols] += consts[-1][i]
        start = out[:, blk.cols].copy()
        start[:, blk.fresh] = 0.0
        starts.append(start)
        x = out
    return plan.bind(starts, values, consts)


def run_program(
    prog: Program, state: PipelineState, steps: int
) -> tuple[list[Matrix], Matrix, float]:
    """Run `steps` descent steps and the readout.

    Returns the coefficient trace w_0..w_T, the final prompt and the
    prediction. The loop runs the program's step plan (:class:`StepPlan`),
    bound to the initial prompt once per run: one generated function, bit
    for bit :func:`step`, which stays the per-step oracle (the argument is
    in :func:`_factory`, the bias identity's in :func:`compile_head`). A
    divergent run overflows silently, and its trace ends before the first
    non-finite coefficient column.
    """
    ws, h_final, prediction = _run_compiled(prog.compiled, state, steps)
    return Matrix.from_stack(ws), h_final, prediction


def _run_compiled(prog: CompiledProgram, state: PipelineState, steps: int):
    """run_program's loop on a compiled view; the trace is a (k, d, 1) stack of hs's w column.

    hs[t] holds step t's state columns: hs[0] the prompt's own, and hs[t]
    for t >= 1 the last block's accumulator plus step t's input, which the
    bound plan's run writes in place. Step 1 reads h0 = h + 0.0 instead of
    hs[0], in a contiguous copy, so every block input is a C-ordered array
    and the skip's x is free of -0.0, as :func:`_factory` says.
    """
    if state.layout != prog.layout:
        raise LayoutMismatch(f"state layout {state.layout} != program layout {prog.layout}")
    h = state.h.array
    plan = prog.plan
    first = h[:, plan.cols]
    hs = np.empty((steps + 1, *first.shape))
    hs[0] = first
    with np.errstate(over="ignore", invalid="ignore"):
        # Every step after the first reads the unwritten columns as h + 0.0.
        h0 = h + 0.0
        # A strided view of h0 would change np.dot's last bit, so step 1 reads a copy laid out
        # as hs[t] is.
        x = np.ascontiguousarray(h0[:, plan.cols])
        _bind(plan, h0)(x, hs)
        final = (h0 if steps else h).copy()
        final[:, plan.cols] = hs[steps]
        h_final = _run_module(PipelineState(Matrix.from_array(final), state.layout), prog,
                              prog.readout)
    ws = hs[:, : state.layout.d, plan.w : plan.w + 1]
    return finite_prefix(ws), h_final, h_final.get(*prog.cell)


class PipelineRun(NamedTuple):
    prediction: float
    w_trace: MatrixStack  # read-only; each w_t is wrapped in a Matrix when it is read
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
    are solvable. The recurrence and the closed form are computed once per
    problem object, so the forms run on one problem share them;
    dataclasses.replace(p, ...) makes a problem with its own. A divergent
    run ends its deviations at the first step t where either coefficient
    column is not finite, and reports that t as "diverged_at" (None when
    every step is finite).
    """
    if form == "lsa":
        kind, state = "designed", build_designed_input(p)
    elif form == "elsa":
        kind, state = "enumerated", build_enumerated_input(p)
    else:
        raise ValueError(f"unknown pipeline form {form!r}")
    trace, _, prediction = _run_compiled(_compiled_program(form, p.n, p.d), state, p.steps)

    oracle = p._oracle
    compared = min(len(trace), len(oracle.trace))
    wp, wo = trace[:compared, :, 0], oracle.trace[:compared, :, 0]
    deviation = np.abs(wp - wo).max(axis=1) / np.maximum(1.0, np.abs(wo).max(axis=1))
    diverged_at = compared if compared <= p.steps else None
    oracle_prediction = math.nan if diverged_at is not None else oracle.prediction

    report = {
        "form": kind,
        "n": p.n,
        "d": p.d,
        "lambda": p.lam,
        "eta": p.eta,
        "T": p.steps,
        "prediction": prediction,
        "oracle_prediction": oracle_prediction,
        "closed_form_prediction": oracle.closed_form_prediction,
        "max_step_deviation": float(deviation.max()),
        "per_step_deviation": deviation.tolist(),
        "diverged_at": diverged_at,
    }
    return PipelineRun(prediction=prediction, w_trace=MatrixStack(trace), report=report)
