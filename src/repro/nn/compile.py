"""Compiled execution backend: trace once, replay as a fused arena plan.

:class:`CompiledStep` wraps a step function ``fn(*arrays) -> Tensor |
tuple[Tensor, ...]`` (first output = the scalar loss).  The first call
per input signature runs eagerly under the PR-2 tape tracer, lowers the
tape through the graphcheck IR (:mod:`repro.analysis.graphcheck.ir`)
and the shared transformation passes
(:mod:`repro.analysis.graphcheck.transforms`) — value-numbered CSE over
gradient-free subgraphs, single-consumer elementwise fusion, last-use
liveness with a greedy arena — into a :class:`CompiledPlan`.  Later
calls with the same input shapes/dtypes replay the plan as plain numpy
array code: no Tensor construction, no backward closures, no
topological sort, and ``out=`` dispatch into preallocated arena slots
for the ufunc-style ops.

Bit-exactness contract
----------------------

Replay must be indistinguishable from the eager tape: every forward
kernel mirrors the exact numpy expression ``Tensor``'s op methods
evaluate, every VJP mirrors the corresponding backward closure
(including per-parent accumulation order and ``_accumulate``'s
cast/unbroadcast/copy semantics), data-dependent selection masks
(``maximum``/``minimum``, relu, clip, pool argmax, conv columns) are
recomputed from the replay inputs rather than reused from capture, and
the backward sweep replays the same iterative-DFS topological order
``Tensor.backward`` produces.  CSE only merges ``requires_grad=False``
nodes — merging gradient-carrying duplicates would re-associate the
gradient sum ``(g1 + g2) * local`` vs ``g1 * local + g2 * local``,
which is not bit-identical in floating point.

What the step function must guarantee
-------------------------------------

* Every call-varying array reaches the graph **as a tensor leaf** (the
  exact array object passed in, wrapped via ``Tensor(arr)``); a plan
  refuses to build (:class:`CompileError`, permanent eager fallback)
  when an input never appears as a leaf.
* Values baked at capture — ``where`` conditions, ``getitem`` indices,
  ``gather`` indices, clip bounds, reduction axes — must be static per
  input signature.  This matches the engine API (those are plain numpy
  arguments, not Tensors, in eager mode too).
* Parameters are bound by Tensor *reference*: replay reads ``.data``
  fresh (so optimiser updates are seen) and writes gradients into
  ``.grad`` exactly as ``_accumulate`` would.

Fallbacks to the eager tape: ``enabled=False``, anomaly mode active, a
plain (non-profiling) ``repro.nn.trace`` scope active, an unsupported
graph (permanent), an unseen input signature once the plan cache is
full.  Under a profiling trace (``repro.obs.opprof.TimedTrace``) replay
still runs and reports each executed segment via ``record_fused``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import anomaly as _anomaly
from . import tracer as _tracer
from .functional import _col2im, _im2col
from .tensor import Tensor, _unbroadcast

__all__ = ["CompileError", "CompiledPlan", "CompiledStep", "StepResult",
           "compile_step"]

class CompileError(RuntimeError):
    """A traced step cannot be lowered to a replayable plan."""


# ----------------------------------------------------------------------
# Plan nodes
# ----------------------------------------------------------------------
@dataclass
class PlanNode:
    """One vertex of the executable plan (a slimmed-down IRNode)."""

    id: int
    op: str                      # engine op name, or "" for leaves
    shape: tuple[int, ...]
    np_dtype: np.dtype
    requires_grad: bool
    inputs: tuple[int, ...]      # already remapped through CSE aliases
    attrs: dict | None
    label: str = ""

    @property
    def is_leaf(self) -> bool:
        return not self.inputs


def _leaf_value(arr: np.ndarray) -> np.ndarray:
    """Mirror ``Tensor.__init__``'s dtype coercion for a bound input."""
    a = np.asarray(arr)
    if not np.issubdtype(a.dtype, np.floating):
        a = a.astype(np.float64)
    return a


# ----------------------------------------------------------------------
# Forward kernels — each mirrors the exact numpy expression the eager op
# method evaluates, so replayed values are bit-identical to the tape.
# ----------------------------------------------------------------------
def _axes_expand(g: np.ndarray, axis, keepdims: bool, ndim: int) -> np.ndarray:
    if axis is not None and not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        for a in sorted(ax % ndim for ax in axes):
            g = np.expand_dims(g, a)
    return g


def _k_conv2d(nodes, n, vals, aux):
    x, w = n.inputs[0], n.inputs[1]
    stride, padding = n.attrs["stride"], n.attrs["padding"]
    c_out, _, kh, kw = nodes[w].shape
    nb = nodes[x].shape[0]
    cols, oh, ow = _im2col(vals[x], kh, kw, stride, padding)
    aux[n.id] = cols
    w_mat = vals[w].reshape(c_out, -1)
    out = np.matmul(w_mat, cols).reshape(nb, c_out, oh, ow)
    if len(n.inputs) == 3:
        out = out + vals[n.inputs[2]].reshape(1, c_out, 1, 1)
    return out


def _k_max_pool2d(nodes, n, vals, aux):
    nb, c, h, w = nodes[n.inputs[0]].shape
    kernel, stride = n.attrs["kernel"], n.attrs["stride"]
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    cols, _, _ = _im2col(vals[n.inputs[0]].reshape(nb * c, 1, h, w),
                         kernel, kernel, stride, 0)
    cols = cols.reshape(nb, c, kernel * kernel, oh * ow)
    argmax = cols.argmax(axis=2)
    aux[n.id] = argmax
    return np.take_along_axis(cols, argmax[:, :, None, :],
                              axis=2).squeeze(2).reshape(nb, c, oh, ow)


def _k_avg_pool2d(nodes, n, vals, aux):
    nb, c, h, w = nodes[n.inputs[0]].shape
    kernel, stride = n.attrs["kernel"], n.attrs["stride"]
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    cols, _, _ = _im2col(vals[n.inputs[0]].reshape(nb * c, 1, h, w),
                         kernel, kernel, stride, 0)
    cols = cols.reshape(nb, c, kernel * kernel, oh * ow)
    return cols.mean(axis=2).reshape(nb, c, oh, ow)


def _k_softmax(nodes, n, vals, aux):
    x = vals[n.inputs[0]]
    axis = n.attrs["axis"]
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def _k_log_softmax(nodes, n, vals, aux):
    x = vals[n.inputs[0]]
    axis = n.attrs["axis"]
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def _k_gather(nodes, n, vals, aux):
    axis = n.attrs["axis"]
    expanded = np.expand_dims(n.attrs["indices"], axis)
    return np.take_along_axis(vals[n.inputs[0]], expanded, axis=axis).squeeze(axis)


KERNELS = {
    "add": lambda nodes, n, v, aux: v[n.inputs[0]] + v[n.inputs[1]],
    "neg": lambda nodes, n, v, aux: -v[n.inputs[0]],
    "mul": lambda nodes, n, v, aux: v[n.inputs[0]] * v[n.inputs[1]],
    "truediv": lambda nodes, n, v, aux: v[n.inputs[0]] / v[n.inputs[1]],
    "pow": lambda nodes, n, v, aux: v[n.inputs[0]] ** n.attrs["exponent"],
    "matmul": lambda nodes, n, v, aux: v[n.inputs[0]] @ v[n.inputs[1]],
    "exp": lambda nodes, n, v, aux: np.exp(v[n.inputs[0]]),
    "log": lambda nodes, n, v, aux: np.log(v[n.inputs[0]]),
    "tanh": lambda nodes, n, v, aux: np.tanh(v[n.inputs[0]]),
    "sigmoid": lambda nodes, n, v, aux: 1.0 / (1.0 + np.exp(-v[n.inputs[0]])),
    "relu": lambda nodes, n, v, aux: np.maximum(v[n.inputs[0]], 0.0),
    "leaky_relu": lambda nodes, n, v, aux: np.where(
        v[n.inputs[0]] > 0, v[n.inputs[0]], n.attrs["slope"] * v[n.inputs[0]]),
    "abs": lambda nodes, n, v, aux: np.abs(v[n.inputs[0]]),
    "clip": lambda nodes, n, v, aux: np.clip(
        v[n.inputs[0]], n.attrs["low"], n.attrs["high"]),
    "sum": lambda nodes, n, v, aux: v[n.inputs[0]].sum(
        axis=n.attrs["axis"], keepdims=n.attrs["keepdims"]),
    "max": lambda nodes, n, v, aux: v[n.inputs[0]].max(
        axis=n.attrs["axis"], keepdims=n.attrs["keepdims"]),
    "reshape": lambda nodes, n, v, aux: v[n.inputs[0]].reshape(n.attrs["shape"]),
    "transpose": lambda nodes, n, v, aux: v[n.inputs[0]].transpose(n.attrs["axes"]),
    "getitem": lambda nodes, n, v, aux: v[n.inputs[0]][n.attrs["index"]],
    "expand_dims": lambda nodes, n, v, aux: np.expand_dims(
        v[n.inputs[0]], n.attrs["axis"]),
    "squeeze": lambda nodes, n, v, aux: np.squeeze(
        v[n.inputs[0]], axis=n.attrs["axis"]),
    "softmax": _k_softmax,
    "log_softmax": _k_log_softmax,
    "concat": lambda nodes, n, v, aux: np.concatenate(
        [v[i] for i in n.inputs], axis=n.attrs["axis"]),
    "stack": lambda nodes, n, v, aux: np.stack(
        [v[i] for i in n.inputs], axis=n.attrs["axis"]),
    "where": lambda nodes, n, v, aux: np.where(
        n.attrs["cond"], v[n.inputs[0]], v[n.inputs[1]]),
    "maximum": lambda nodes, n, v, aux: np.where(
        v[n.inputs[0]] >= v[n.inputs[1]], v[n.inputs[0]], v[n.inputs[1]]),
    "minimum": lambda nodes, n, v, aux: np.where(
        v[n.inputs[0]] <= v[n.inputs[1]], v[n.inputs[0]], v[n.inputs[1]]),
    "conv2d": _k_conv2d,
    "max_pool2d": _k_max_pool2d,
    "avg_pool2d": _k_avg_pool2d,
    "gather": _k_gather,
    "embedding_lookup": lambda nodes, n, v, aux: v[n.inputs[0]][n.attrs["indices"]],
}


def _ko_sigmoid(nodes, n, v, aux, out):
    # Stepwise mirror of 1.0 / (1.0 + np.exp(-x)): same ufunc sequence,
    # chained in place through the arena slot.
    np.negative(v[n.inputs[0]], out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    np.divide(1.0, out, out=out)
    return out


# Ufunc-style ops that can write straight into their arena slot.  Each
# produces the same bits as its KERNELS twin (same ufunc, out= added).
OUT_KERNELS = {
    "add": lambda nodes, n, v, aux, out: np.add(v[n.inputs[0]], v[n.inputs[1]], out=out),
    "neg": lambda nodes, n, v, aux, out: np.negative(v[n.inputs[0]], out=out),
    "mul": lambda nodes, n, v, aux, out: np.multiply(v[n.inputs[0]], v[n.inputs[1]], out=out),
    "truediv": lambda nodes, n, v, aux, out: np.divide(v[n.inputs[0]], v[n.inputs[1]], out=out),
    "exp": lambda nodes, n, v, aux, out: np.exp(v[n.inputs[0]], out=out),
    "log": lambda nodes, n, v, aux, out: np.log(v[n.inputs[0]], out=out),
    "tanh": lambda nodes, n, v, aux, out: np.tanh(v[n.inputs[0]], out=out),
    "relu": lambda nodes, n, v, aux, out: np.maximum(v[n.inputs[0]], 0.0, out=out),
    "abs": lambda nodes, n, v, aux, out: np.abs(v[n.inputs[0]], out=out),
    "clip": lambda nodes, n, v, aux, out: np.clip(
        v[n.inputs[0]], n.attrs["low"], n.attrs["high"], out=out),
    "sigmoid": _ko_sigmoid,
}


# ----------------------------------------------------------------------
# VJP registry — each mirrors the op's eager backward closure, with
# data-dependent values (masks, argmax, im2col columns) recomputed or
# read from the forward pass's aux cache, never reused from capture.
# The ``acc`` callback replicates ``Tensor._accumulate`` (cast ->
# unbroadcast -> copy-or-add) and skips parents without requires_grad.
# ----------------------------------------------------------------------
def _vjp_matmul(nodes, n, g, vals, aux, acc):
    a, b = n.inputs
    av, bv = vals[a], vals[b]
    if nodes[a].requires_grad:
        if bv.ndim == 1 and av.ndim == 1:
            acc(a, g * bv)
        elif bv.ndim == 1:
            acc(a, np.expand_dims(g, -1) * bv)
        elif av.ndim == 1:
            acc(a, g @ np.swapaxes(bv, -1, -2))
        else:
            acc(a, _unbroadcast(g @ np.swapaxes(bv, -1, -2), nodes[a].shape))
    if nodes[b].requires_grad:
        if av.ndim == 1 and bv.ndim == 1:
            acc(b, g * av)
        elif av.ndim == 1:
            acc(b, np.outer(av, g))
        elif bv.ndim == 1:
            gb = np.swapaxes(av, -1, -2) @ np.expand_dims(g, -1)
            acc(b, _unbroadcast(gb.squeeze(-1), nodes[b].shape))
        else:
            acc(b, _unbroadcast(np.swapaxes(av, -1, -2) @ g, nodes[b].shape))


def _vjp_sum(nodes, n, g, vals, aux, acc):
    (a,) = n.inputs
    pshape = nodes[a].shape
    g = _axes_expand(g, n.attrs["axis"], n.attrs["keepdims"], len(pshape))
    acc(a, np.broadcast_to(g, pshape))


def _vjp_max(nodes, n, g, vals, aux, acc):
    (a,) = n.inputs
    axis, keepdims = n.attrs["axis"], n.attrs["keepdims"]
    pshape = nodes[a].shape
    maxval = vals[n.id]
    if axis is not None and not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        for ax in sorted(x % len(pshape) for x in axes):
            g = np.expand_dims(g, ax)
            maxval = np.expand_dims(maxval, ax)
    mask = (vals[a] == maxval).astype(nodes[a].np_dtype)
    if axis is None:
        denom = mask.sum()
    else:
        denom = mask.sum(axis=axis, keepdims=True)
    acc(a, g * mask / denom)


def _vjp_getitem(nodes, n, g, vals, aux, acc):
    (a,) = n.inputs
    if nodes[a].requires_grad:
        grad = np.zeros(nodes[a].shape, dtype=nodes[a].np_dtype)
        np.add.at(grad, n.attrs["index"], g)
        acc(a, grad)


def _vjp_softmax(nodes, n, g, vals, aux, acc):
    s = vals[n.id]
    inner = (g * s).sum(axis=n.attrs["axis"], keepdims=True)
    acc(n.inputs[0], s * (g - inner))


def _vjp_log_softmax(nodes, n, g, vals, aux, acc):
    soft = np.exp(vals[n.id])
    acc(n.inputs[0], g - soft * g.sum(axis=n.attrs["axis"], keepdims=True))


def _vjp_concat(nodes, n, g, vals, aux, acc):
    offset = 0
    ax = n.attrs["axis"] % len(n.shape)
    for t in n.inputs:
        width = nodes[t].shape[ax]
        slicer = [slice(None)] * len(n.shape)
        slicer[ax] = slice(offset, offset + width)
        acc(t, g[tuple(slicer)])
        offset += width


def _vjp_stack(nodes, n, g, vals, aux, acc):
    for t, gt in zip(n.inputs, np.moveaxis(g, n.attrs["axis"], 0)):
        acc(t, gt)


def _vjp_select(cond, a, b, g, acc):
    acc(a, np.where(cond, g, 0.0))
    acc(b, np.where(cond, 0.0, g))


def _vjp_conv2d(nodes, n, g, vals, aux, acc):
    x, w = n.inputs[0], n.inputs[1]
    stride, padding = n.attrs["stride"], n.attrs["padding"]
    c_out, _, kh, kw = nodes[w].shape
    nb, _, oh, ow = n.shape
    grad = g.reshape(nb, c_out, oh * ow)
    cols = aux.get(n.id)
    if cols is None:
        cols, _, _ = _im2col(vals[x], kh, kw, stride, padding)
    if nodes[w].requires_grad:
        gw = np.tensordot(grad, cols, axes=([0, 2], [0, 2]))
        acc(w, gw.reshape(nodes[w].shape))
    if len(n.inputs) == 3 and nodes[n.inputs[2]].requires_grad:
        acc(n.inputs[2], g.sum(axis=(0, 2, 3)))
    if nodes[x].requires_grad:
        w_mat = vals[w].reshape(c_out, -1)
        gcols = np.matmul(w_mat.T, grad)
        acc(x, _col2im(gcols, nodes[x].shape, kh, kw, stride, padding))


def _vjp_max_pool2d(nodes, n, g, vals, aux, acc):
    (x,) = n.inputs
    if not nodes[x].requires_grad:
        return
    nb, c, h, w = nodes[x].shape
    kernel, stride = n.attrs["kernel"], n.attrs["stride"]
    oh, ow = n.shape[2], n.shape[3]
    argmax = aux.get(n.id)
    if argmax is None:
        cols, _, _ = _im2col(vals[x].reshape(nb * c, 1, h, w),
                             kernel, kernel, stride, 0)
        argmax = cols.reshape(nb, c, kernel * kernel, oh * ow).argmax(axis=2)
    gcols = np.zeros((nb, c, kernel * kernel, oh * ow), dtype=nodes[x].np_dtype)
    np.put_along_axis(gcols, argmax[:, :, None, :],
                      g.reshape(nb, c, 1, oh * ow), axis=2)
    gx = _col2im(gcols.reshape(nb * c, kernel * kernel, oh * ow),
                 (nb * c, 1, h, w), kernel, kernel, stride, 0)
    acc(x, gx.reshape(nb, c, h, w))


def _vjp_avg_pool2d(nodes, n, g, vals, aux, acc):
    (x,) = n.inputs
    if not nodes[x].requires_grad:
        return
    nb, c, h, w = nodes[x].shape
    kernel, stride = n.attrs["kernel"], n.attrs["stride"]
    oh, ow = n.shape[2], n.shape[3]
    gk = g.reshape(nb, c, 1, oh * ow) / (kernel * kernel)
    gcols = np.broadcast_to(gk, (nb, c, kernel * kernel, oh * ow)).copy()
    gx = _col2im(gcols.reshape(nb * c, kernel * kernel, oh * ow),
                 (nb * c, 1, h, w), kernel, kernel, stride, 0)
    acc(x, gx.reshape(nb, c, h, w))


def _vjp_gather(nodes, n, g, vals, aux, acc):
    (a,) = n.inputs
    if not nodes[a].requires_grad:
        return
    axis = n.attrs["axis"]
    expanded = np.expand_dims(n.attrs["indices"], axis)
    gx = np.zeros(nodes[a].shape, dtype=nodes[a].np_dtype)
    np.put_along_axis(gx, expanded, np.expand_dims(g, axis), axis=axis)
    acc(a, gx)


def _vjp_embedding(nodes, n, g, vals, aux, acc):
    (a,) = n.inputs
    if not nodes[a].requires_grad:
        return
    gx = np.zeros(nodes[a].shape, dtype=nodes[a].np_dtype)
    np.add.at(gx, n.attrs["indices"], g)
    acc(a, gx)


VJPS = {
    "add": lambda nodes, n, g, v, aux, acc: (acc(n.inputs[0], g),
                                             acc(n.inputs[1], g)),
    "neg": lambda nodes, n, g, v, aux, acc: acc(n.inputs[0], -g),
    "mul": lambda nodes, n, g, v, aux, acc: (
        acc(n.inputs[0], g * v[n.inputs[1]]),
        acc(n.inputs[1], g * v[n.inputs[0]])),
    "truediv": lambda nodes, n, g, v, aux, acc: (
        acc(n.inputs[0], g / v[n.inputs[1]]),
        acc(n.inputs[1], -g * v[n.inputs[0]] / (v[n.inputs[1]] ** 2))),
    "pow": lambda nodes, n, g, v, aux, acc: acc(
        n.inputs[0], g * n.attrs["exponent"]
        * v[n.inputs[0]] ** (n.attrs["exponent"] - 1)),
    "matmul": _vjp_matmul,
    "exp": lambda nodes, n, g, v, aux, acc: acc(n.inputs[0], g * v[n.id]),
    "log": lambda nodes, n, g, v, aux, acc: acc(n.inputs[0], g / v[n.inputs[0]]),
    "tanh": lambda nodes, n, g, v, aux, acc: acc(
        n.inputs[0], g * (1.0 - v[n.id] ** 2)),
    "sigmoid": lambda nodes, n, g, v, aux, acc: acc(
        n.inputs[0], g * v[n.id] * (1.0 - v[n.id])),
    "relu": lambda nodes, n, g, v, aux, acc: acc(
        n.inputs[0], g * (v[n.inputs[0]] > 0)),
    "leaky_relu": lambda nodes, n, g, v, aux, acc: acc(
        n.inputs[0], g * np.where(v[n.inputs[0]] > 0, 1.0, n.attrs["slope"])),
    "abs": lambda nodes, n, g, v, aux, acc: acc(
        n.inputs[0], g * np.sign(v[n.inputs[0]])),
    "clip": lambda nodes, n, g, v, aux, acc: acc(
        n.inputs[0], g * ((v[n.inputs[0]] >= n.attrs["low"])
                          & (v[n.inputs[0]] <= n.attrs["high"]))),
    "sum": _vjp_sum,
    "max": _vjp_max,
    "reshape": lambda nodes, n, g, v, aux, acc: acc(
        n.inputs[0], g.reshape(nodes[n.inputs[0]].shape)),
    "transpose": lambda nodes, n, g, v, aux, acc: acc(
        n.inputs[0], g.transpose(np.argsort(n.attrs["axes"]))),
    "getitem": _vjp_getitem,
    "expand_dims": lambda nodes, n, g, v, aux, acc: acc(
        n.inputs[0], np.squeeze(g, axis=n.attrs["axis"])),
    "squeeze": lambda nodes, n, g, v, aux, acc: acc(
        n.inputs[0], g.reshape(nodes[n.inputs[0]].shape)),
    "softmax": _vjp_softmax,
    "log_softmax": _vjp_log_softmax,
    "concat": _vjp_concat,
    "stack": _vjp_stack,
    "where": lambda nodes, n, g, v, aux, acc: _vjp_select(
        n.attrs["cond"], n.inputs[0], n.inputs[1], g, acc),
    "maximum": lambda nodes, n, g, v, aux, acc: _vjp_select(
        v[n.inputs[0]] >= v[n.inputs[1]], n.inputs[0], n.inputs[1], g, acc),
    "minimum": lambda nodes, n, g, v, aux, acc: _vjp_select(
        v[n.inputs[0]] <= v[n.inputs[1]], n.inputs[0], n.inputs[1], g, acc),
    "conv2d": _vjp_conv2d,
    "max_pool2d": _vjp_max_pool2d,
    "avg_pool2d": _vjp_avg_pool2d,
    "gather": _vjp_gather,
    "embedding_lookup": _vjp_embedding,
}

# Ops whose VJP reads the node's *own* forward value (kept live through
# the backward sweep, pinning its arena slot).
_READS_OUT = frozenset({"exp", "tanh", "sigmoid", "softmax", "log_softmax",
                        "max"})
# Ops whose VJP reads some parent's forward value.
_READS_IN = frozenset({"mul", "truediv", "pow", "matmul", "log", "relu",
                       "leaky_relu", "abs", "clip", "max", "maximum",
                       "minimum", "conv2d", "max_pool2d"})
# Ops whose kernel may return a numpy *view* of a parent's buffer.  The
# base buffer of every view chain is pinned in the arena: releasing it
# would let a later out= kernel rewrite memory the view still exposes.
_MAY_VIEW = frozenset({"reshape", "squeeze", "expand_dims", "transpose",
                       "getitem"})


# ----------------------------------------------------------------------
# The plan
# ----------------------------------------------------------------------
class StepResult:
    """Uniform handle returned by :class:`CompiledStep` in every mode.

    ``outputs`` holds the step function's output values as numpy arrays
    (copies on the replay path, so they survive arena reuse);
    ``backward()`` backpropagates from the first output — through the
    eager tape when the call ran eagerly, through the plan's VJP sweep
    when it replayed.
    """

    __slots__ = ("outputs", "mode", "_tensors", "_backward_fn")

    def __init__(self, tensors=None, outputs=None, backward_fn=None,
                 mode: str = "eager"):
        if tensors is not None:
            self._tensors = tensors
            self.outputs = tuple(t.data for t in tensors)
        else:
            self._tensors = None
            self.outputs = outputs
        self._backward_fn = backward_fn
        self.mode = mode

    def backward(self) -> None:
        """Accumulate gradients into the bound parameters' ``.grad``."""
        if self._tensors is not None:
            self._tensors[0].backward()
        else:
            self._backward_fn()

    def item(self, index: int = 0) -> float:
        """Output ``index`` as a Python float (must be one element)."""
        return float(np.asarray(self.outputs[index]).item())


class CompiledPlan:
    """One lowered, replayable trace for a fixed input signature."""

    def __init__(self, name: str, nodes: list[PlanNode]):
        self.name = name
        self.nodes = nodes               # indexed by node id (alias slots stay None-valued)
        self.segments: list[tuple[str, tuple[int, ...], str]] = []
        self.input_bindings: dict[int, int] = {}   # leaf node id -> input index
        self.param_refs: dict[int, Tensor] = {}    # requires_grad leaves, by reference
        self.const_refs: dict[int, Tensor] = {}    # captured constants, by reference
        self.aliases: dict[int, int] = {}          # CSE: dropped node -> representative
        self.outputs: tuple[int, ...] = ()
        self.backward_order: list[int] = []
        self.guards: tuple[tuple[tuple[int, ...], str], ...] = ()
        self.fusion = None                          # FusionPlan
        self.arena = None                           # ArenaPlan
        self.slot_buffers: list[np.ndarray] = []
        self.out_views: dict[int, np.ndarray] = {}  # node id -> arena view
        # Flat dispatch state, precomputed by build() so the replay loops
        # touch only local tuples instead of per-op dict/table lookups.
        self.input_list: list[tuple[int, int, bool]] = []   # (nid, src, cast)
        self.run_list: list[tuple] = []      # (nid, node, kernel, view|None)
        self.bwd_list: list[tuple] = []      # (nid, node, vjp)
        self.grad_buffers: dict[int, np.ndarray] = {}
        self.replays = 0

    # -- construction ---------------------------------------------------
    @classmethod
    def build(cls, tape, outs, arrays, name: str = "step") -> "CompiledPlan":
        """Lower a captured tape + outputs into an executable plan.

        Raises :class:`CompileError` when the trace cannot be replayed
        soundly (unsupported op, an input array that never entered the
        graph as a leaf, a gradient-carrying input leaf, or a non-scalar
        loss root).
        """
        # Imported lazily: repro.analysis pulls in repro.core at package
        # init, which imports repro.nn — eager imports here would cycle.
        import dataclasses

        from ..analysis.graphcheck.ir import GraphIR, build_ir
        from ..analysis.graphcheck.transforms import (analyze_buffers,
                                                      find_duplicates,
                                                      find_fusion_groups,
                                                      node_bytes,
                                                      value_number)

        ir = build_ir(tape, roots=outs)

        # Tensor objects for every leaf (the tape holds strong refs).
        tensors: dict[int, object] = {}
        for rec in tape:
            tensors[id(rec.tensor)] = rec.tensor
            for p in rec.parents:
                tensors[id(p)] = p
        for t in outs:
            tensors[id(t)] = t
        leaf_tensor = {nid: tensors[tid] for tid, nid in ir.tensor_ids.items()
                       if ir.node(nid).is_leaf and tid in tensors}

        for n in ir:
            if n.is_leaf:
                continue
            if n.op not in KERNELS:
                raise CompileError(f"unsupported op '{n.op}'")
            if n.requires_grad and n.op not in VJPS:
                raise CompileError(f"op '{n.op}' has no replayable VJP")
        root = ir.roots[0]
        root_node = ir.node(root)
        if not root_node.requires_grad:
            raise CompileError("loss root does not require grad")
        if int(np.prod(root_node.shape)) != 1:
            raise CompileError("loss root is not a scalar")

        # CSE over gradient-free subgraphs: structural value numbering
        # with identity leaves (two inputs are never merged just because
        # their capture-time values coincided).
        vn = value_number(ir, identity_leaves=True)
        dup = {d: r for d, r in find_duplicates(ir, vn).items()
               if not ir.node(d).requires_grad
               and not ir.node(r).requires_grad}

        plan = cls(name, [None] * len(ir.nodes))
        plan.aliases = dup
        remap = lambda ids: tuple(dup.get(i, i) for i in ids)
        for n in ir:
            if n.id in dup:
                continue
            plan.nodes[n.id] = PlanNode(
                id=n.id, op="" if n.is_leaf else n.op, shape=tuple(n.shape),
                np_dtype=np.dtype(n.dtype), requires_grad=n.requires_grad,
                inputs=remap(n.inputs), attrs=n.attrs, label=n.label)
        plan.outputs = remap(ir.roots)

        # Leaf binding: inputs by array identity, parameters/constants by
        # Tensor reference (read fresh each replay).
        arr_index = {id(a): i for i, a in enumerate(arrays)}
        bound: set[int] = set()
        for nid, t in leaf_tensor.items():
            if nid in dup:
                continue
            src = arr_index.get(id(t.data))
            if src is not None:
                if plan.nodes[nid].requires_grad:
                    raise CompileError(f"input {src} is a requires_grad leaf")
                plan.input_bindings[nid] = src
                bound.add(src)
            elif plan.nodes[nid].requires_grad:
                plan.param_refs[nid] = t
            else:
                plan.const_refs[nid] = t
        missing = sorted(set(range(len(arrays))) - bound)
        if missing:
            raise CompileError(
                f"inputs {missing} never entered the graph as tensor leaves")
        plan.guards = tuple((tuple(a.shape), str(a.dtype)) for a in arrays)

        # Backward: replicate Tensor.backward()'s iterative DFS on node
        # ids (edges = inputs of requires_grad nodes, pushed in order).
        nodes = plan.nodes
        topo: list[int] = []
        visited: set[int] = set()
        stack: list[tuple[int, bool]] = [(plan.outputs[0], False)]
        while stack:
            nid, processed = stack.pop()
            if processed:
                topo.append(nid)
                continue
            if nid in visited:
                continue
            visited.add(nid)
            stack.append((nid, True))
            if nodes[nid].requires_grad:
                for p in nodes[nid].inputs:
                    if p not in visited:
                        stack.append((p, False))
        plan.backward_order = [nid for nid in reversed(topo)
                               if nodes[nid].inputs and nodes[nid].requires_grad]

        # Values the backward sweep will read stay pinned in the arena.
        pinned: set[int] = set(plan.outputs)
        for nid in plan.backward_order:
            n = nodes[nid]
            if n.op in _READS_OUT:
                pinned.add(nid)
            if n.op in _READS_IN:
                pinned.update(p for p in n.inputs if nodes[p].inputs)
        # View chains alias their base buffer for the whole step: pin the
        # view node and every ancestor down to the first non-view op.
        for n in nodes:
            if n is None or not n.inputs or n.op not in _MAY_VIEW:
                continue
            base = n.id
            while nodes[base].op in _MAY_VIEW and nodes[base].inputs:
                pinned.add(base)
                base = nodes[base].inputs[0]
            if nodes[base].inputs:
                pinned.add(base)

        # Shared passes over the deduplicated graph: fusion groups on
        # tape order, then the arena over the *execution* order (fused
        # chains run contiguously at their last member's position, so
        # liveness must be computed on that order).
        ir_nodes = [dataclasses.replace(n, inputs=remap(n.inputs), data=None)
                    for n in ir if n.id not in dup]
        plan_ir = GraphIR(ir_nodes, roots=plan.outputs)
        plan.fusion = find_fusion_groups(plan_ir, min_size=2)
        group_of: dict[int, object] = {}
        for g in plan.fusion.groups:
            for m in g.nodes:
                group_of[m.id] = g
        exec_ids: list[int] = []
        for n in plan_ir:
            if n.is_leaf:
                continue
            grp = group_of.get(n.id)
            if grp is None:
                plan.segments.append(("op", (n.id,), n.label))
                exec_ids.append(n.id)
            elif n.id == grp.nodes[-1].id:
                member_ids = tuple(m.id for m in grp.nodes)
                plan.segments.append(
                    ("fused", member_ids, grp.label or "+".join(grp.ops)))
                exec_ids.extend(member_ids)
        by_id = {n.id: n for n in ir_nodes}
        exec_ir = GraphIR([n for n in ir_nodes if n.is_leaf]
                          + [by_id[i] for i in exec_ids], roots=plan.outputs)
        plan.arena = analyze_buffers(exec_ir, keep_alive=frozenset(pinned))

        # Preallocated slots + per-node views for the out=-capable ops.
        plan.slot_buffers = [np.empty(size, dtype=np.uint8)
                             for size in plan.arena.slot_sizes]
        for nid, (slot, size, _, _) in plan.arena.assignments.items():
            n = nodes[nid]
            if n.op not in OUT_KERNELS:
                continue
            count = int(np.prod(n.shape)) if n.shape else 1
            nbytes = count * n.np_dtype.itemsize
            view = plan.slot_buffers[slot][:nbytes].view(n.np_dtype)
            plan.out_views[nid] = view.reshape(n.shape)

        # Flat dispatch lists.  The dtype guard pins replay inputs to the
        # capture dtypes, so whether a bound input needs the float cast
        # from ``Tensor.__init__`` is a build-time fact.
        for nid, src in plan.input_bindings.items():
            a = np.asarray(arrays[src])
            plan.input_list.append(
                (nid, src, not np.issubdtype(a.dtype, np.floating)))
        for _, ids, _ in plan.segments:
            for nid in ids:
                n = nodes[nid]
                view = plan.out_views.get(nid)
                kern = OUT_KERNELS[n.op] if view is not None else KERNELS[n.op]
                plan.run_list.append((nid, n, kern, view))
        plan.bwd_list = [(nid, nodes[nid], VJPS[nodes[nid].op])
                         for nid in plan.backward_order]

        # Gradient accumulation buffers for interior nodes, reused across
        # replays: the first contribution copies in, later ones add in
        # place — value-identical to the eager copy/add pair.  Parameter
        # gradients stay freshly allocated because ``t.grad`` escapes the
        # plan (optimizers and clipping hold references to it).
        receivers = {plan.outputs[0]}
        for nid in plan.backward_order:
            receivers.update(p for p in nodes[nid].inputs
                             if nodes[p].requires_grad)
        plan.grad_buffers = {
            nid: np.empty(nodes[nid].shape, dtype=nodes[nid].np_dtype)
            for nid in receivers if nid not in plan.param_refs}
        return plan

    # -- execution ------------------------------------------------------
    def execute(self, arrays, profile=None) -> StepResult:
        """Replay the plan on ``arrays``; returns a :class:`StepResult`."""
        nodes = self.nodes
        vals: list = [None] * len(nodes)
        aux: dict[int, np.ndarray] = {}
        for nid, src, cast in self.input_list:
            a = np.asarray(arrays[src])
            vals[nid] = a.astype(np.float64) if cast else a
        for nid, t in self.param_refs.items():
            vals[nid] = t.data
        for nid, t in self.const_refs.items():
            vals[nid] = t.data

        if profile is None:
            for nid, n, kern, view in self.run_list:
                if view is None:
                    vals[nid] = kern(nodes, n, vals, aux)
                else:
                    vals[nid] = kern(nodes, n, vals, aux, view)
        else:
            out_views = self.out_views
            t_prev = time.perf_counter()
            for kind, ids, label in self.segments:
                for nid in ids:
                    n = nodes[nid]
                    view = out_views.get(nid)
                    if view is not None:
                        vals[nid] = OUT_KERNELS[n.op](nodes, n, vals, aux, view)
                    else:
                        vals[nid] = KERNELS[n.op](nodes, n, vals, aux)
                stamp = time.perf_counter()
                op = "fused" if kind == "fused" else nodes[ids[0]].op
                nbytes = sum(vals[i].nbytes for i in ids)
                profile.record_fused(op, label, "nn.compile", stamp,
                                     stamp - t_prev, nbytes)
                t_prev = stamp

        self.replays += 1
        outputs = tuple(vals[nid].copy() for nid in self.outputs)
        return StepResult(outputs=outputs, mode="replay",
                          backward_fn=lambda: self._backward(vals, aux))

    def _backward(self, vals, aux) -> None:
        """VJP sweep mirroring the eager tape's backward pass."""
        nodes = self.nodes
        grads: list = [None] * len(nodes)
        for nid, t in self.param_refs.items():
            grads[nid] = t.grad
        bufs = self.grad_buffers

        def acc(nid: int, g) -> None:
            n = nodes[nid]
            if not n.requires_grad:
                return
            g = _unbroadcast(np.asarray(g, dtype=n.np_dtype), n.shape)
            cur = grads[nid]
            if cur is None:
                buf = bufs.get(nid)
                if buf is None:
                    grads[nid] = g.copy()
                else:
                    np.copyto(buf, g)
                    grads[nid] = buf
            elif cur is bufs.get(nid):
                cur += g
            else:
                grads[nid] = cur + g

        root = self.outputs[0]
        acc(root, np.ones_like(vals[root]))
        for nid, n, vjp in self.bwd_list:
            g = grads[nid]
            if g is None:
                continue
            vjp(nodes, n, g, vals, aux, acc)
        for nid, t in self.param_refs.items():
            t.grad = grads[nid]

    # -- reporting ------------------------------------------------------
    def describe(self) -> dict:
        """Plan statistics for ``repro compile`` and the check pillar."""
        ops = [n for n in self.nodes if n is not None and n.inputs]
        return {
            "name": self.name,
            "guards": [{"shape": list(s), "dtype": d} for s, d in self.guards],
            "nodes": len(ops),
            "inputs": len(self.input_bindings),
            "params": len(self.param_refs),
            "consts": len(self.const_refs),
            "cse_merged": len(self.aliases),
            "fused_groups": [{"ops": g.ops, "saved_bytes": g.saved_bytes}
                             for g in self.fusion.groups],
            "arena_bytes": self.arena.arena_bytes,
            "total_alloc_bytes": self.arena.total_alloc_bytes,
            "peak_live_bytes": self.arena.peak_live_bytes,
            "reuse_ratio": self.arena.reuse_ratio,
            "arena_backed_ops": len(self.out_views),
            "backward_ops": len(self.backward_order),
            "replays": self.replays,
        }


# ----------------------------------------------------------------------
# The dispatcher
# ----------------------------------------------------------------------
class CompiledStep:
    """Shape-guarded compile-on-first-call wrapper around a step function.

    ``fn(*arrays)`` must build its graph purely from Tensor leaves over
    the call arrays and captured parameters/constants, and return a
    tuple of Tensors whose first element is the scalar loss.  The first
    call per input signature runs eagerly under a trace and lowers the
    tape into a :class:`CompiledPlan`; later calls with the same
    signature replay the plan.  Anything the plan cannot honour —
    anomaly mode, an enclosing plain trace, an unsupported graph — falls
    back to the eager path (permanently, when lowering itself failed).
    """

    def __init__(self, fn, name: str = "step", enabled: bool = True,
                 max_plans: int = 8):
        self.fn = fn
        self.name = name
        self.enabled = enabled
        self.max_plans = max_plans
        self.plans: dict[tuple, CompiledPlan] = {}
        self.disabled_reason: str | None = None
        self.calls = 0
        self.eager_calls = 0
        self.replay_calls = 0

    def __call__(self, *arrays) -> StepResult:
        self.calls += 1
        if not self.enabled or self.disabled_reason is not None:
            return self._eager(arrays)
        if _anomaly._ENABLED:
            return self._eager(arrays)
        active = _tracer._ACTIVE
        profile = None
        if active is not None:
            if not hasattr(active, "record_fused"):
                # A plain graph trace wants the real tape, not a replay.
                return self._eager(arrays)
            profile = active
        sig = tuple((tuple(a.shape), str(a.dtype))
                    for a in (np.asarray(a) for a in arrays))
        plan = self.plans.get(sig)
        if plan is not None:
            self.replay_calls += 1
            return plan.execute(arrays, profile=profile)
        if profile is not None or len(self.plans) >= self.max_plans:
            return self._eager(arrays)
        return self._capture(sig, arrays)

    def _eager(self, arrays) -> StepResult:
        self.eager_calls += 1
        return StepResult(tensors=tuple(self.fn(*arrays)), mode="eager")

    def _capture(self, sig, arrays) -> StepResult:
        """Run eagerly under a private trace and lower the tape."""
        self.eager_calls += 1
        with _tracer.trace() as tape:
            outs = tuple(self.fn(*arrays))
        try:
            self.plans[sig] = CompiledPlan.build(tape, outs, arrays,
                                                 name=self.name)
        except CompileError as exc:
            self.disabled_reason = str(exc)
        return StepResult(tensors=outs, mode="capture")

    def describe(self) -> dict:
        """Dispatcher + per-plan statistics."""
        return {
            "name": self.name,
            "enabled": self.enabled,
            "disabled_reason": self.disabled_reason,
            "calls": self.calls,
            "eager_calls": self.eager_calls,
            "replay_calls": self.replay_calls,
            "plans": [p.describe() for p in self.plans.values()],
        }


def compile_step(fn=None, *, name: str = "step", enabled: bool = True,
                 max_plans: int = 8):
    """Decorator/factory form of :class:`CompiledStep`."""
    if fn is None:
        return lambda f: CompiledStep(f, name=name, enabled=enabled,
                                      max_plans=max_plans)
    return CompiledStep(fn, name=name, enabled=enabled, max_plans=max_plans)
