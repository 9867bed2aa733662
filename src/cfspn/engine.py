"""Batched evaluation and differentiation of circuits, tensorized by region.

``compile_circuit`` reads the flat arrays of a :class:`~cfspn.circuit.Circuit`
and lowers them into a few dense array operations per topological level.
Sum nodes that share one children tuple form a *group*: the S sums of a
region, or the C class roots.
When that tuple is a sequence of K blocks, each a run of binary products
whose (left, right) children list L x R row-major (the order in which
``structure.instantiate`` creates them), and no node outside the group
reads those products, the products are absorbed: they are never
materialized, and the group is the log-einsum-exp contraction of Einsum
Networks (Peharz et al., ICML 2020),

    log(sum_k sum_i l_ki (W_k @ r_k)_i) + M,
    l = exp(L - m_L) * sc,  r = exp(R - m_R),

with per-block shifts m_L, m_R and block scales sc = exp(m_L + m_R - M)
under the largest block shift M.  The right factors are contracted with
each block's (S*I, J) weights first, U = W_k @ r_k, and the left factors
then weight U; the right factors' adjoints are one contraction of the
transposed weights with l Q, where Q is the sums' adjoints over their
values.  Neither the I x J child products nor their adjoints are ever
formed.  The shifts ignore the weights, so where a contraction comes
out tiny (a sum whose heaviest children carry next to no weight) that sum
is recomputed in log space, one term per child product.  Groups of equal
shape at one level are stacked into a bucket.  A group whose children are
not such blocks is one block with J = 1 and no right factor; its U is the
weights themselves.

Gaussian leaves are compiled into *leaf regions*, the exponential-family
leaf layers of Einsum Networks.  A product whose children are Gaussian
leaves, each on its own variable and read by nothing else, is absorbed with
its leaves: it is a distribution over their sorted scope.  Every other
Gaussian leaf is a distribution over its own variable.  The distributions
of one scope form a region of I distributions over k variables, and regions
of equal (I, k) a bucket, in node order.  Per scope variable the sufficient
statistics are T(x) = [(x - c)^2, x - c, 1], all 0 where x is missing,
centered at c, the mean of the region's leaf means on that variable; a
distribution's log value is theta . T, so a bucket's values are one batched
matrix product of theta, (R, I, 3k), and T, (R, 3k, B), written to the
distributions' rows.  The leaves themselves are never materialized.  Input
gradients are 2(x - c) G_a + G_b with G = theta^T @ A, and parameter
gradients come from A @ T^T.  The remaining products are summed per
arity.

All of this is the lowering of a :class:`~cfspn.circuit.Structure`: groups,
owners, blocks and leaf-region scopes are found by a few array passes per
arity (each child row one value of a 1-D ``np.unique``), and the lowering is
made once per structure and kept on it.  A :class:`CompiledCircuit` is that
lowering plus one read-only parameter set.  theta and c are derived from the
leaf means and variances, as are the sums' weights from their log-weights,
on the instance's first evaluation, and kept; ``with_parameters`` gives a
new instance of the same structure for new parameters.

Every row gets the same bits in any batch.  The matrix products that run
per row (``_contract``) multiply blocks of exactly ``_WIDTH`` columns,
whatever the batch width, and every sum over a node axis adds its terms in
order (``_sum_in_order``).

A batch of any size is evaluated in column blocks of rows: at most
``_BLOCK_COLS`` (128) columns, and few enough that no temporary array
outgrows ``_BLOCK_ELEMENTS``.  Each call allocates one workspace
(``_Workspace``), sized from the lowering for its widest block, and every
block takes its large arrays from it: node values and adjoints, leaf
statistics, each sum step's gathered factors, U and contractions, and the
scratch of the steps, which each step gives back when it is done.  So no
block allocates or frees anything large, and the allocator has no block
memory to hand back to the OS and fault in again.  ``evaluate`` makes one
pass per block, and adds the blocks' parameter gradients in block order.  It
computes the log values of every materialized node (distributions of leaf
regions, Bernoulli and categorical leaves, unabsorbed products, sums) and
reads the block's class-root values.  Given adjoints, it then derives the
block's class-root seeds from those values and runs the transposed
contraction down to input coordinates and, optionally, to leaf and sum
parameters; each sum step reuses the factors and contractions it built on
the way up.  The node values never leave the block.  Without adjoints the
pass is forward only: each step's arrays go back to the workspace once the
step is done, and it returns only the class-root values.  ``forward`` runs
the forward sweep alone and returns the node values; ``backward`` seeds
class-root nodes and runs ``evaluate``'s pass, forward sweep and all.  The
two are kept for timing.

Sum-node log-weights live in one (sums, children) array per bucket
(``sum_log_weights``), columns in each node's own child order, and their
gradients come back in the same layout, so a trainer updates every sum of a
bucket with one array operation; ``to_circuit`` writes them back into the
circuit's per-edge ``log_weights``.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .circuit import (
    BERNOULLI,
    CATEGORICAL,
    GAUSSIAN,
    LOG_2PI,
    PRODUCT,
    SUM,
    Circuit,
    Structure,
    _bottom_up,
    _by_arity,
    _points,
    logsumexp,
)


#: Shifted child factors below e^-_CUT are flushed to 0.  A group's largest
#: term is 1, so a flushed term moves a sum by under e^-300 relative to that
#: term's weight, and a product of two kept factors stays above e^-600, clear
#: of subnormal numbers even after weighting.  Without the flush, subnormal
#: products made the d=64 benchmark model's passes on inputs far from the
#: data about 1.8x slower (2-vCPU x86 host).
_CUT = 300.0

#: A contraction below this is recomputed in log space, one term per child
#: product.  Flushed terms weigh under e^-300, so only here can they matter;
#: and a sum lands here when its heaviest children carry (nearly) zero
#: weight, so that every term it does weight is far below the block shift.
_LOW = math.exp(-250.0)

#: Elements in the largest temporary array of one column block.  Wider
#: batches are split into column blocks: on the d=64 benchmark model, 68
#: columns (8 MB temporaries) made B=256 passes about 1.1x faster than 136
#: columns and 1.2x faster than one 256-column block (2-vCPU x86 host).
_BLOCK_ELEMENTS = 1 << 20

#: Most columns in one block; without it a small circuit would run a large
#: batch as one block.  The cap bounds an evaluate call's workspace, which
#: holds one block's arrays: about 4.3 MB for a gradient of the 8,362-node
#: moons model.  Values and input gradients get the same bits at any block
#: width, but a batch's parameter gradients are summed block by block, so
#: their bits, and with them a fit on batches wider than one block, depend on
#: this cap and on _BLOCK_ELEMENTS.  A cap below 128 would split the
#: trainer's default 128-row batch and so change every fit.
_BLOCK_COLS = 128

#: Columns of every matrix product that runs per row.  A BLAS picks its
#: kernel, and with it the order in which each dot product adds its terms,
#: by the shape of the product: OpenBLAS takes a matrix-vector kernel at one
#: column and treats the last columns of a wider product apart.  Products of
#: one fixed shape give each column the same bits whatever its neighbours.
#: A single row pays for all of them.  On the d=64 benchmark model, 4
#: columns instead of 8 made cf_p50_ms 13% lower and infer_rows_per_s 14%
#: lower (medians of 2 benchmark runs each, 2-vCPU x86 host).
_WIDTH = 4


class _Workspace:
    """The float64 memory of one :meth:`CompiledCircuit.evaluate` call, handed
    out as a stack.

    It is allocated once per call, at the size the lowering gives for the
    call's widest column block (:meth:`CompiledCircuit._workspace`), and every
    block takes its large arrays from it, starting again at the bottom: node
    values, adjoints, leaf statistics, a sum step's factors and its scratch.
    So no block allocates or frees anything large, and the allocator never
    hands a block's memory back to the OS to fault it in again for the next.
    What a step takes as scratch it gives back by resetting ``top``.  It is
    never kept past the call, so a nested or concurrent call has its own.
    """

    def __init__(self, size: int):
        self.buffer = np.empty(size)
        self.top = 0

    def take(self, *shape: int) -> np.ndarray:
        """An uninitialized C-contiguous array of this shape, on top of the stack."""
        start = self.top
        self.top = stop = start + math.prod(shape)
        return self.buffer[start:stop].reshape(shape)

    def gather(self, a: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """a[rows], the rows of a 2-D array at an array of indices."""
        return a.take(rows, axis=0, out=self.take(*rows.shape, a.shape[1]), mode="clip")


class _Slots(NamedTuple):
    """Floats per batch column that a step takes from the workspace."""

    kept: int       # what its forward keeps for its backward
    forward: int    # scratch of its forward, beyond what it keeps
    backward: int   # scratch of its backward
    tail: int       # floats per column of its padded _WIDTH-column products


def _exp_cut(a: np.ndarray) -> np.ndarray:
    """exp(a) in place for a <= 0, with every a at or below -_CUT (or -inf)
    giving exactly 0; returns a.  An element's exp does not depend on its
    neighbours, so exp of all of them, then the flush, gives the bits of an
    exp masked to the kept ones, at about half its cost."""
    cut = a <= -_CUT
    np.exp(a, out=a)
    np.copyto(a, 0.0, where=cut)
    return a


def _finite_or_zero(a: np.ndarray) -> np.ndarray:
    return np.where(np.isfinite(a), a, 0.0)


def _contract(M: np.ndarray, X: np.ndarray, out: np.ndarray, ws: _Workspace) -> np.ndarray:
    """out = M @ X for stacked matrices, (R, m, n) @ (R, n, B), as products of
    exactly _WIDTH columns; returns out, which must be C-contiguous.  The
    last B % _WIDTH columns are multiplied as a copy padded with zeros, in
    scratch of (R, n, _WIDTH) and (R, m, _WIDTH) from ws."""
    R, n, B = X.shape
    m = M.shape[1]
    full = B - B % _WIDTH
    if full:
        np.matmul(M[:, None], X[..., :full].reshape(R, n, -1, _WIDTH).swapaxes(1, 2),
                  out=out[..., :full].reshape(R, m, -1, _WIDTH).swapaxes(1, 2))
    if full < B:
        top = ws.top
        padded = ws.take(R, n, _WIDTH)
        padded.fill(0.0)
        padded[..., :B - full] = X[..., full:]
        out[..., full:] = np.matmul(M, padded, out=ws.take(R, m, _WIDTH))[..., :B - full]
        ws.top = top
    return out


def _sum_in_order(a: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """a, C-contiguous, summed along axis into out, first term to last.

    np.add.reduce adds in order along an axis with more elements after it,
    but pairwise along one that is innermost, as an axis followed by a batch
    axis of length 1 is; there the sum is accumulated instead.
    """
    if math.prod(a.shape[axis + 1:]) > 1:
        return np.add.reduce(a, axis=axis, out=out)
    out[...] = np.add.accumulate(a, axis=axis)[(slice(None),) * axis + (-1,)]
    return out


def _scatter_add(A: np.ndarray, rows: np.ndarray, values: np.ndarray,
                 unique: bool) -> None:
    """A[rows] += values, accumulating rows that appear more than once."""
    if unique:
        A[rows] += values
    else:
        np.add.at(A, rows, values)


def _is_unique(rows: np.ndarray) -> bool:
    # Sorted, not np.unique: on 36k to 300k distinct integers, numpy 2.4's
    # hash-table np.unique was 20 to 40 times slower (2-vCPU x86 host).
    a = np.sort(rows, axis=None)
    return not np.any(a[1:] == a[:-1])


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


class _ByVariable:
    """Rows on variables (a leaf family's, or leaf regions' scope slots) sorted
    by variable, so per-variable sums are one reduce."""

    def __init__(self, variables: np.ndarray):
        self.order = np.argsort(variables, kind="stable")   # row r holds leaf order[r]
        self.variables = variables[self.order]
        self.starts = np.flatnonzero(np.diff(self.variables, prepend=-1))

    def add_to(self, out: np.ndarray, rows: np.ndarray) -> None:
        """out[v] += the sum of the (sorted) rows on variable v."""
        if self.order.size:
            out[self.variables[self.starts]] += np.add.reduceat(rows, self.starts, axis=0)


class _Natural(NamedTuple):
    """One leaf-region bucket's parameters, derived from the leaf means and variances."""

    theta: np.ndarray     # (R, 3k, I): -1/2v, delta/v, -(delta^2/v + log 2 pi v)/2
    center: np.ndarray    # (R, k): each scope variable's mean of leaf means
    delta: np.ndarray     # (R, k, I): leaf means less their variable's center
    variance: np.ndarray  # (R, k, I)


@dataclass(eq=False)
class _LeafRegions:
    """R leaf regions of I Gaussian distributions over k variables each.

    Distribution i of region r is the product of the leaves ``leaves[r, i]``,
    one per scope variable ``variables[r]``.  Its log value is the dot
    product of theta[r, :, i] with the sufficient statistics T[r] of its
    scope, [(x - c)^2, x - c, 1] per variable, all 0 where x is missing.
    """

    rows: slice                 # R*I output rows, region-major
    leaves: np.ndarray          # (R, I, k) Gaussian leaf indices (into gaussian_ids)
    variables: np.ndarray       # (R, k) sorted scopes
    by_variable: _ByVariable    # over variables.ravel()

    def _at_leaves(self, a: np.ndarray) -> np.ndarray:
        """A new C-contiguous (R, k, I) array of a at the leaves."""
        return a[self.leaves].transpose(0, 2, 1).copy()

    def natural(self, mean: np.ndarray, variance: np.ndarray) -> _Natural:
        """theta and the centers from the current leaf parameters.

        Centering keeps the terms of theta . T small where the data sit far
        from 0, so that the matrix product rounds no worse than leaf-by-leaf
        sums.  Each of theta's three parts is a run of k*I values per
        region, so building it writes no short strided runs.
        """
        R, I, k = self.leaves.shape
        delta, var = self._at_leaves(mean), self._at_leaves(variance)
        center = delta.sum(axis=2)
        center /= I
        delta -= center[:, :, None]
        theta = np.empty((R, 3 * k, I))
        a, b, c = theta[:, :k], theta[:, k:2 * k], theta[:, 2 * k:]
        np.divide(-0.5, var, out=a)
        np.divide(delta, var, out=b)
        np.multiply(delta, b, out=c)
        c += np.log(var)
        c += LOG_2PI
        c *= -0.5
        return _Natural(theta, center, delta, var)

    def slots(self) -> _Slots:
        R, I, k = self.leaves.shape
        return _Slots(kept=3 * k * R, forward=k * R, backward=4 * k * R, tail=R * (I + 3 * k))

    def forward(self, ws: _Workspace, V: np.ndarray, XT: np.ndarray, p: _Natural) -> np.ndarray:
        """Write the distributions' log values on (d, B) inputs into V; return
        the statistics T, (R, 3k, B), on top of ws."""
        R, I, k = self.leaves.shape
        T = ws.take(R, 3 * k, XT.shape[1])
        u = T[:, k:2 * k]
        top = ws.top
        np.subtract(ws.gather(XT, self.variables), p.center[:, :, None], out=u)
        ws.top = top
        T[:, 2 * k:] = 1.0
        missing = np.isnan(u)
        if missing.any():
            u[missing] = 0.0
            T[:, 2 * k:][missing] = 0.0
        np.multiply(u, u, out=T[:, :k])
        _contract(p.theta.transpose(0, 2, 1), T, V[self.rows].reshape(R, I, -1), ws)
        return T

    def backward(self, ws: _Workspace, A: np.ndarray, T: np.ndarray, p: _Natural,
                 gx: np.ndarray | None, result: BackwardResult) -> None:
        """Add input gradients to gx, (d, B), and leaf-parameter gradients to result."""
        R, I, k = self.leaves.shape
        B = A.shape[1]
        adjoint = A[self.rows].reshape(R, I, B)
        if gx is not None:
            top = ws.top
            G = _contract(p.theta[:, :2 * k], adjoint, ws.take(R, 2 * k, B), ws)
            dx = np.multiply(G[:, :k], T[:, k:2 * k], out=ws.take(R, k, B))
            dx *= 2.0
            dx += G[:, k:]
            dx *= T[:, 2 * k:]      # 0 where x is missing
            self.by_variable.add_to(gx, ws.gather(dx.reshape(R * k, B), self.by_variable.order))
            ws.top = top
        if result.gaussian_mean_grads is not None:
            G = T @ adjoint.transpose(0, 2, 1)      # (R, 3k, I)
            ga, gb, gc = G[:, :k], G[:, k:2 * k], G[:, 2 * k:]
            delta, var = p.delta, p.variance
            leaves = self.leaves.transpose(0, 2, 1)
            result.gaussian_mean_grads[leaves] += (gb - delta * gc) / var
            result.gaussian_variance_grads[leaves] += (
                (ga - 2.0 * delta * gb + delta * delta * gc - var * gc) / (2.0 * var * var))


@dataclass(eq=False)
class _Products:
    """The materialized products of one arity at one level."""

    rows: slice              # output rows
    children: np.ndarray     # (n, arity) child rows
    unique: bool             # no row repeats within a column of children

    def slots(self) -> _Slots:
        return _Slots(0, 0, 0, 0)

    def forward(self, ws: _Workspace, V: np.ndarray, params: None) -> None:
        out = V[self.rows]
        out[...] = V[self.children[:, 0]]
        for column in self.children.T[1:]:
            out += V[column]

    def backward(self, ws: _Workspace, V: np.ndarray, A: np.ndarray, params: None,
                 grad: None, saved: None) -> None:
        adjoint = A[self.rows]
        for column in self.children.T:
            _scatter_add(A, column, adjoint, self.unique)


class _Factors(NamedTuple):
    """What a sum step computes on its way up, for its way down."""

    left: np.ndarray            # l, (G, K, I, B)
    right: np.ndarray | None    # r, (G, K, J, B); None without a right factor
    U: np.ndarray               # W_k @ r_k, (G, K, S, I, B); without r, W as (G, K, S, I, 1)
    T: np.ndarray               # the contractions, (G, S, B)


@dataclass(eq=False)
class _Sums:
    """G groups of S sums over K blocks of I x J products, at one level."""

    rows: slice                # G*S output rows, group-major
    ids: np.ndarray            # node id of each output row
    left: np.ndarray           # (G, K, I) rows of the left factors
    right: np.ndarray | None   # (G, K, J) rows; None for a single factor (J = 1)
    unique: bool               # no row repeats within left, nor within right

    @property
    def width(self) -> int:
        """Elements per batch column of the step's largest temporaries."""
        return len(self.ids) * self.left.shape[1] * self.left.shape[2]

    def weights(self, log_weights: np.ndarray) -> np.ndarray:
        """exp(log_weights) as (G*K, S*I, J): row s*I + i of block k holds the
        weights of sum s on the products (i, j)."""
        G, K, I = self.left.shape
        S = len(self.ids) // G
        log_weights = log_weights.reshape(G, S, K, I, -1).swapaxes(1, 2)
        return np.exp(log_weights, out=np.empty(log_weights.shape)).reshape(G * K, S * I, -1)

    def slots(self) -> _Slots:
        G, K, I = self.left.shape
        S = len(self.ids) // G
        J = 0 if self.right is None else self.right.shape[2]
        return _Slots(kept=G * (K * I + K * J + (K * S * I if J else 0) + S),
                      forward=G * K * S * (I + 1), backward=G * K * (S * I + max(I, J)),
                      tail=G * K * (S * I + J) if J else 0)

    def _factors(self, ws: _Workspace, V: np.ndarray,
                 W: np.ndarray) -> tuple[_Factors, np.ndarray]:
        """The factors, U and the contractions T on V, on top of ws, and the
        shift M, (G, B).

        l * r = exp(L + R - M) are the child products: M is the largest
        block shift m_L + m_R, so every product is at most 1; where every
        block is -inf, M is 0 and every product is 0.
        """
        G, K, I = self.left.shape
        B = V.shape[1]
        S = len(self.ids) // G
        left = ws.gather(V, self.left)
        m = left.max(axis=2)
        if self.right is None:
            M = _finite_or_zero(m.max(axis=1))
            left -= M[:, None, None, :]
            right, U = None, W.reshape(G, K, S, I, 1)
        else:
            right = ws.gather(V, self.right)
            m_right = right.max(axis=2)
            M = _finite_or_zero((m + m_right).max(axis=1))
            left += (m_right - M[:, None, :])[:, :, None, :]
            right -= _finite_or_zero(m_right)[:, :, None, :]
            U = _contract(W, _exp_cut(right).reshape(G * K, right.shape[2], B),
                          ws.take(G * K, S * I, B), ws).reshape(G, K, S, I, B)
        _exp_cut(left)
        T = ws.take(G, S, B)
        top = ws.top
        terms = np.multiply(left[:, :, None], U, out=ws.take(G, K, S, I, B))
        _sum_in_order(_sum_in_order(terms, axis=3, out=ws.take(G, K, S, B)), axis=1, out=T)
        ws.top = top
        return _Factors(left, right, U, T), M

    def _log_terms(self, V: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Log child products, (n, K*I*J), of group g[k] at batch column b[k]."""
        L = V[self.left[g], b[:, None, None]]
        if self.right is None:
            return L.reshape(len(g), -1)
        R = V[self.right[g], b[:, None, None]]
        return (L[:, :, :, None] + R[:, :, None, :]).reshape(len(g), -1)

    def _exact(self, V: np.ndarray, log_weights: np.ndarray, low: np.ndarray):
        """The (g, s, b) indices where ``low`` holds, and those sums' log terms."""
        g, s, b = np.nonzero(low)
        lw = log_weights.reshape(low.shape[0], low.shape[1], -1)[g, s]
        return g, s, b, lw + self._log_terms(V, g, b)

    def forward(self, ws: _Workspace, V: np.ndarray,
                params: tuple[np.ndarray, np.ndarray]) -> _Factors:
        """Write the sums' log values into V, given ``params``, the log-weights
        and their :meth:`weights`; return the factors for :meth:`backward`,
        on top of ws."""
        log_weights, W = params
        factors, M = self._factors(ws, V, W)
        T = factors.T
        out = V[self.rows].reshape(T.shape)
        with np.errstate(divide="ignore"):
            np.log(T, out=out)
        out += M[:, None, :]
        low = T < _LOW
        if low.any():
            g, s, b, terms = self._exact(V, log_weights, low)
            out[g, s, b] = logsumexp(terms, axis=1)
        return factors

    def backward(self, ws: _Workspace, V: np.ndarray, A: np.ndarray,
                 params: tuple[np.ndarray, np.ndarray],
                 grad: np.ndarray | None, saved: _Factors) -> None:
        """Add the children's adjoints to A, and the log-weight gradients to grad;
        ``saved`` is what :meth:`forward` returned on the same V."""
        log_weights, W = params
        left, right, U, T = saved
        G, K, I, B = left.shape
        S = T.shape[1]
        low = T < _LOW
        adjoint = A[self.rows].reshape(T.shape)
        Q = np.zeros(T.shape)
        np.divide(adjoint, T, out=Q, where=~low)
        Q = Q[:, None, :, None]
        top = ws.top
        # d T[s] / d l[k, i] = U[k, s, i]; d T[s] / d r[k, j] = sum_i l[k, i] W[k, s, i, j]
        UQ = np.multiply(U, Q, out=ws.take(G, K, S, I, B))
        flow = _sum_in_order(UQ, axis=2, out=ws.take(G, K, I, B))
        flow *= left
        _scatter_add(A, self.left, flow, self.unique)
        ws.top = top
        lq = np.multiply(left[:, :, None], Q, out=ws.take(G, K, S, I, B)).reshape(G * K, S * I, B)
        if right is not None:
            J = right.shape[2]
            flow = _contract(W.transpose(0, 2, 1), lq, ws.take(G * K, J, B), ws)
            flow = flow.reshape(G, K, J, B)
            flow *= right
            _scatter_add(A, self.right, flow, self.unique)
        if grad is not None:
            if right is None:
                gw = lq.sum(axis=2)[:, :, None]
            else:
                gw = lq @ right.reshape(G * K, J, B).transpose(0, 2, 1)
            gw *= W
            gw = gw.reshape(G, K, S, I, -1).transpose(0, 2, 1, 3, 4)
            grad.reshape(gw.shape)[...] += gw
        ws.top = top
        # The sums recomputed in log space; a dead one (-inf) passes nothing.
        if not low.any():
            return
        out = V[self.rows].reshape(T.shape)
        live = low & np.isfinite(out) & (adjoint != 0.0)
        if live.any():
            g, s, b, terms = self._exact(V, log_weights, live)
            flow = np.exp(terms - out[g, s, b][:, None]) * adjoint[g, s, b][:, None]
            per_child = flow.reshape(len(g), *self.left.shape[1:], -1)
            np.add.at(A, (self.left[g], b[:, None, None]), per_child.sum(axis=3))
            if self.right is not None:
                np.add.at(A, (self.right[g], b[:, None, None]), per_child.sum(axis=2))
            if grad is not None:
                np.add.at(grad, g * S + s, flow)


def _kept(ws: _Workspace, keep: bool, forward: Callable, *args):
    """forward(ws, *args); unless ``keep``, what it took from ws goes back."""
    top = ws.top
    saved = forward(ws, *args)
    if not keep:
        ws.top = top
    return saved


def _as_values(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-D array as one opaque value, so that a 1-D ``np.unique``
    compares whole rows."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()


def _edges(ptr: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Indices into ``ids`` of the nodes' child edges, node by node."""
    counts = ptr[nodes + 1] - ptr[nodes]
    return np.repeat(ptr[nodes] - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _blocks(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Split (left, right) child pairs into K runs that list L x R row-major.

    Returns the runs' (K, I) left and (K, J) right children, or None unless
    every run has the same I x J shape.  A run starts with a chunk of J
    pairs on one left child, J the length of the first such chunk, and takes
    the chunks after it while they pair their left child with the same J
    right children; the next chunk starts a run of its own, whose first left
    child must not go on past its first chunk.
    """
    left = pairs[:, 0]
    J = int((left != left[0]).argmax()) or len(pairs)
    if len(pairs) % J:
        return None
    chunks = pairs.reshape(-1, J, 2)
    lefts, rights = chunks[:, 0, 0], chunks[:, :, 1]
    if not (chunks[:, :, 0] == lefts[:, None]).all():
        return None
    new_run = (rights[1:] != rights[:-1]).any(axis=1)
    starts = np.concatenate([[0], 1 + np.flatnonzero(new_run)])
    I = len(chunks) // len(starts)
    # every run I chunks long, and no run's first left child in its second chunk
    if (len(chunks) % len(starts) or new_run[I - 1::I].sum() != len(starts) - 1
            or (lefts[1:] == lefts[:-1])[starts[starts < len(chunks) - 1]].any()):
        return None
    return lefts.reshape(len(starts), I), rights[starts]


@dataclass
class BackwardResult:
    """Gradients from one reverse pass; unrequested fields stay None."""

    input_grads: np.ndarray | None = None       # (B, d)
    sum_log_weight_grads: list[np.ndarray] | None = None  # like sum_log_weights
    gaussian_mean_grads: np.ndarray | None = None      # aligned with gaussian_ids
    gaussian_variance_grads: np.ndarray | None = None
    bernoulli_p_grads: np.ndarray | None = None


class _Lowering:
    """What a structure compiles to, parameters aside: the materialized rows,
    the steps that compute them level by level, the leaf regions and the
    column-block width.  Made once per structure, from a few array passes
    per arity and per bucket; every :class:`CompiledCircuit` of the
    structure shares it.
    """

    def __init__(self, s: Structure):
        n = s.kind.size
        self.d = s.num_variables
        kind, ptr, ids = s.kind, s.ptr, s.ids
        arity = np.diff(ptr)

        # Sum groups: the sums with equal children, keyed by the first of them
        # (the head); per arity, each sum's child row is one value.
        sums = np.flatnonzero(kind == SUM)
        first = np.empty(n, dtype=np.int64)
        for k in np.unique(arity[sums]):
            members = sums[arity[sums] == k]
            _, at, inverse = np.unique(_as_values(ids[ptr[members][:, None] + np.arange(k)]),
                                       return_index=True, return_inverse=True)
            first[members] = members[at[inverse]]
        heads, group_of = np.unique(first[sums], return_inverse=True)
        G = len(heads)
        group_sums = np.split(sums[np.argsort(group_of, kind="stable")],
                              np.cumsum(np.bincount(group_of, minlength=G))[:-1])
        # every group's children, group by group
        group_start = np.cumsum(arity[heads]) - arity[heads]
        edge_group = np.repeat(np.arange(G), arity[heads])
        children = ids[_edges(ptr, heads)]

        # The one group (if any) that alone reads each node: its first and
        # last reader.
        first_reader, last_reader = np.full(n, G), np.full(n, -1)
        np.minimum.at(first_reader, children, edge_group)
        np.maximum.at(last_reader, children, edge_group)
        owner = np.where(last_reader < 0, -2,
                         np.where(first_reader == last_reader, last_reader, -1))
        owner[ids[np.repeat(kind == PRODUCT, arity)]] = -1
        owner[list(s.class_roots)] = -1

        # Gaussian distributions: a product of Gaussian leaves, each on its own
        # variable and read by nothing else, is one over its children's scope
        # (the product is in a region and its leaves are absorbed); every other
        # Gaussian leaf is one over its own variable.
        readers = np.bincount(ids, minlength=n)
        readers[list(s.class_roots)] += 1
        gaussian = kind == GAUSSIAN
        in_region = np.zeros(n, dtype=bool)
        distributions: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        all_products = np.flatnonzero(kind == PRODUCT)
        for k in np.unique(arity[all_products]):
            members = all_products[arity[all_products] == k]
            members = members[gaussian[ids[ptr[members]]]]      # a first factor that qualifies
            factors = ids[ptr[members][:, None] + np.arange(k)]
            factors = np.take_along_axis(
                factors, np.argsort(s.variable[factors], axis=1, kind="stable"), axis=1)
            ok = (np.all(gaussian[factors] & (readers[factors] == 1), axis=1)
                  & np.all(np.diff(s.variable[factors], axis=1) > 0, axis=1))
            in_region[members[ok]] = True
            gaussian[factors[ok]] = False
            distributions.setdefault(int(k), []).append((members[ok], factors[ok]))
        single = np.flatnonzero(gaussian)
        distributions.setdefault(1, []).append((single, single[:, None]))

        # A group whose children are binary products that it alone reads, and
        # that list L x R blocks, absorbs them.
        absorbed = np.zeros(n, dtype=bool)
        group_blocks = [None] * G
        candidate = np.logical_and.reduceat(
            (kind[children] == PRODUCT) & (arity[children] == 2)
            & (owner[children] == edge_group) & ~in_region[children], group_start)
        for g in np.flatnonzero(candidate):
            products = children[group_start[g]:group_start[g] + arity[heads[g]]]
            group_blocks[g] = _blocks(ids[ptr[products][:, None] + np.arange(2)])
            absorbed[products] = group_blocks[g] is not None

        # Levels of the materialized nodes: leaves and leaf-region products are
        # level 0, and an absorbed product passes its children's level to the
        # sums that absorb it.  A head stands for its group's sums.
        rep = np.arange(n)
        rep[sums] = first[sums]
        level = _bottom_up(np.maximum, np.zeros(n, dtype=np.int64),
                           [(at, rep[children]) for at, children
                            in _by_arity(ptr, ids, np.concatenate([all_products, heads]))],
                           (~(absorbed | in_region)).astype(np.int64))
        buckets: dict[tuple, list[int]] = {}
        for g, (head, blocks) in enumerate(zip(heads, group_blocks)):
            if blocks is None:
                shape = (1, arity[head], 1, False)
            else:
                shape = (*blocks[0].shape, blocks[1].shape[1], True)
            buckets.setdefault((level[head], len(group_sums[g]), *shape), []).append(g)
        products = np.flatnonzero((kind == PRODUCT) & ~absorbed & ~in_region)

        self.gaussian_ids = np.flatnonzero(kind == GAUSSIAN)
        self.gaussian_vars = s.variable[self.gaussian_ids]
        self.bernoulli_ids = np.flatnonzero(kind == BERNOULLI)
        self.bernoulli_vars = s.variable[self.bernoulli_ids]
        self.categorical_ids = np.flatnonzero(kind == CATEGORICAL)
        self.categorical_vars = s.variable[self.categorical_ids]
        # every leaf's log probabilities, concatenated; leaf r starts at offset r
        self.categorical_offsets = s.probs_ptr[:-1]
        self.categorical_sizes = np.diff(s.probs_ptr)
        self._bernoulli = _ByVariable(self.bernoulli_vars)

        # Rows: Gaussian distributions by bucket, the other leaves by family,
        # then level by level products and sum buckets.
        row_of = np.full(n, -1, dtype=np.int64)
        top = 0

        def take(ids: np.ndarray) -> slice:
            nonlocal top
            row_of[ids] = np.arange(top, top + len(ids))
            top += len(ids)
            return slice(top - len(ids), top)

        # Leaf regions: the distributions of one scope, in node order.  Regions
        # of equal (I, k) form a bucket.
        leaf_index = np.full(n, -1, dtype=np.int64)
        leaf_index[self.gaussian_ids] = np.arange(self.gaussian_ids.size)
        self._regions: list[_LeafRegions] = []
        for k, parts in sorted(distributions.items()):
            outputs, leaves = (np.concatenate(a) for a in zip(*parts))
            scope = s.variable[leaves]
            _, first, region = np.unique(_as_values(scope), return_index=True,
                                         return_inverse=True)
            by_node = np.argsort(first)
            scopes, region = scope[first[by_node]], np.argsort(by_node)[region]
            by_region = np.argsort(region, kind="stable")
            sizes = np.bincount(region, minlength=len(scopes))
            starts = np.cumsum(sizes) - sizes
            for I in np.unique(sizes):
                members = by_region[starts[sizes == I][:, None] + np.arange(I)]
                variables = scopes[sizes == I]
                self._regions.append(_LeafRegions(
                    take(outputs[members].ravel()), leaf_index[leaves[members]],
                    variables, _ByVariable(variables.ravel())))
        self._bernoulli_rows = take(self.bernoulli_ids[self._bernoulli.order])
        self._categorical_rows = take(self.categorical_ids)
        self._steps: list[_Products | _Sums] = []
        self._sums: list[_Sums] = []
        for lev in range(1, int(level.max(initial=0)) + 1):
            at_level = products[level[products] == lev]
            for k in np.unique(arity[at_level]):
                members = at_level[arity[at_level] == k]
                rows = take(members)
                factors = row_of[ids[ptr[members][:, None] + np.arange(k)]]
                self._steps.append(_Products(rows, factors, all(map(_is_unique, factors.T))))
            for key, members in buckets.items():
                if key[0] != lev:
                    continue
                sum_ids = np.concatenate([group_sums[g] for g in members])
                rows = take(sum_ids)
                if key[-1]:
                    left = row_of[np.stack([group_blocks[g][0] for g in members])]
                    right = row_of[np.stack([group_blocks[g][1] for g in members])]
                else:
                    left = row_of[np.stack([children[group_start[g]:group_start[g] + key[3]]
                                            for g in members])][:, None, :]
                    right = None
                step = _Sums(rows, sum_ids, left, right,
                             _is_unique(left) and (right is None or _is_unique(right)))
                self._steps.append(step)
                self._sums.append(step)
        self.n_rows = top
        self._root_rows = row_of[list(s.class_roots)]
        self._roots_unique = _is_unique(self._root_rows)
        # Batch columns per block, so that no temporary outgrows
        # _BLOCK_ELEMENTS; a multiple of _WIDTH, so that only a batch's last
        # block is padded.
        widest = max([s.width for s in self._sums]
                     + [3 * r.variables.size for r in self._regions] + [self.n_rows])
        self._block_cols = max(_WIDTH, min(_BLOCK_COLS, _BLOCK_ELEMENTS // widest)
                               // _WIDTH * _WIDTH)


def _lowering(structure: Structure) -> _Lowering:
    """A structure's lowering, made on first use and kept in the structure's
    instance dict, as ``functools.cached_property`` keeps a value: it lives
    as long as the structure, and holds no reference back to it."""
    if "_lowering" not in vars(structure):
        vars(structure)["_lowering"] = _Lowering(structure)
    return vars(structure)["_lowering"]


class CompiledCircuit:
    """A structure's lowering plus one read-only parameter set, reusable
    across evaluations.

    An instance shares every attribute of its structure's lowering, made
    once per structure, and holds the parameter arrays it was given: the
    Gaussian and Bernoulli leaf parameters, the categorical leaves'
    probabilities and the sums' log-weights, one (sums, children) array per
    sum bucket.  What every call evaluates with, each leaf-region bucket's
    natural parameters, each sum step's weights and the leaves' logs, is
    derived from them on first use, once, and kept read-only.
    :meth:`with_parameters` gives an instance of the same structure with
    other parameters; a trainer swaps in one per step and reads the result
    back with :meth:`to_circuit`.  An instance refers to its structure, not
    to a circuit, so a circuit that holds its compiled form is freed as
    soon as it is dropped.
    """

    def __init__(self, circuit: Circuit):
        self._adopt(circuit.structure)
        self._set_parameters(circuit.mean, circuit.variance, circuit.p, circuit.probs,
                             [circuit.log_weights[edges] for edges in self._sum_edges()])

    def _adopt(self, structure: Structure) -> None:
        """Share every attribute of the structure's lowering."""
        vars(self).update(vars(_lowering(structure)))
        self.structure = structure

    def _sum_edges(self) -> list[np.ndarray]:
        """Per sum bucket, the (sums, children) indices of its log-weights in
        the circuit's per-edge ``log_weights``."""
        ptr = self.structure.ptr
        return [ptr[step.ids][:, None] + np.arange(ptr[step.ids[0] + 1] - ptr[step.ids[0]])
                for step in self._sums]

    def _set_parameters(self, gaussian_mean: np.ndarray, gaussian_variance: np.ndarray,
                        bernoulli_p: np.ndarray, categorical_probs: np.ndarray,
                        sum_log_weights: list[np.ndarray]) -> None:
        """Take these arrays, read-only, as the parameters."""
        self.gaussian_mean = gaussian_mean
        self.gaussian_variance = gaussian_variance
        self.bernoulli_p = bernoulli_p
        self.categorical_probs = categorical_probs
        #: Sum-node log-weights as one (sums, children) array per bucket.
        self.sum_log_weights = tuple(sum_log_weights)
        _read_only(gaussian_mean, gaussian_variance, bernoulli_p, *self.sum_log_weights)

    @cached_property
    def _natural(self) -> list[_Natural]:
        """Each leaf-region bucket's natural parameters."""
        natural = [r.natural(self.gaussian_mean, self.gaussian_variance) for r in self._regions]
        _read_only(*(a for p in natural for a in p))
        return natural

    @cached_property
    def _weights(self) -> list[tuple[np.ndarray, np.ndarray] | None]:
        """Per step: a sum bucket's log-weights and their weights; None for products."""
        log_weights = dict(zip(self._sums, self.sum_log_weights))
        weights = [(log_weights[s], s.weights(log_weights[s])) if s in log_weights
                   else None for s in self._steps]
        _read_only(*(pair[1] for pair in weights if pair))
        return weights

    @cached_property
    def _bernoulli_params(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The Bernoulli leaves' p, log p and log(1 - p), (leaves, 1) in row order."""
        p = self.bernoulli_p[self._bernoulli.order, None]
        with np.errstate(divide="ignore"):
            params = (p, np.log(p), np.log1p(-p))
        _read_only(*params)
        return params

    @cached_property
    def categorical_log_probs(self) -> np.ndarray:
        """Every categorical leaf's log probabilities, concatenated."""
        with np.errstate(divide="ignore"):
            log_probs = np.log(self.categorical_probs)
        _read_only(log_probs)
        return log_probs

    def with_parameters(self, gaussian_mean, gaussian_variance, bernoulli_p,
                        sum_log_weights) -> CompiledCircuit:
        """A new instance of this one's structure with these parameters, in
        the layout of this one's arrays, and this one's categorical leaves.

        It holds copies of them, read-only, and derives what every call
        evaluates with on first use; this instance is left as it is.
        """
        arrays = [np.array(a, dtype=np.float64) for a in
                  (gaussian_mean, gaussian_variance, bernoulli_p, *sum_log_weights)]
        current = (self.gaussian_mean, self.gaussian_variance, self.bernoulli_p,
                   *self.sum_log_weights)
        if [a.shape for a in arrays] != [a.shape for a in current]:
            raise ValueError("parameter shapes differ from the compiled circuit's")
        new = object.__new__(CompiledCircuit)
        new._adopt(self.structure)
        new._set_parameters(*arrays[:3], self.categorical_probs, arrays[3:])
        return new

    def per_sum_node(self, arrays: list[np.ndarray]) -> dict[int, np.ndarray]:
        """Rows of per-bucket sum arrays, keyed by sum node id."""
        return {int(i): a[row]
                for step, a in zip(self._sums, arrays)
                for row, i in enumerate(step.ids)}

    def to_circuit(self, log_prior: np.ndarray) -> Circuit:
        """A new circuit of this instance's structure and parameters, which
        alone are checked; a copy of this instance is its compiled form for
        life."""
        log_weights = np.zeros(self.structure.ids.size)
        for edges, w in zip(self._sum_edges(), self.sum_log_weights):
            log_weights[edges] = w
        _read_only(log_weights)
        circuit = self.structure.circuit(
            log_weights=log_weights, log_prior=log_prior, mean=self.gaussian_mean,
            variance=self.gaussian_variance, p=self.bernoulli_p,
            probs=self.categorical_probs)
        vars(circuit)["_compiled"] = copy.copy(self)
        return circuit

    def _column_blocks(self, B: int) -> list[slice]:
        return [slice(b, min(b + self._block_cols, B))
                for b in range(0, max(B, 1), self._block_cols)]

    @cached_property
    def _workspace_floats(self) -> tuple[dict[bool, int], int]:
        """Workspace floats per column, of a forward and of a fused pass, and
        the padded products' floats.

        Per column a block holds its node values, and its adjoints in a fused
        pass; then every leaf-region bucket's statistics and every
        step's kept arrays, all at once in a fused pass, one step's at a time
        in a forward pass; and on top, one step's scratch.
        """
        slots = [part.slots() for part in (*self._regions, *self._steps)] or [_Slots(0, 0, 0, 0)]
        return ({False: self.n_rows + max(s.kept + s.forward for s in slots),
                 True: 2 * self.n_rows + sum(s.kept for s in slots)
                 + max(max(s.forward, s.backward) for s in slots)},
                _WIDTH * max(s.tail for s in slots))

    def _workspace(self, B: int, fused: bool) -> _Workspace:
        """A workspace for the column blocks of B rows."""
        per_column, tail = self._workspace_floats
        return _Workspace(min(B, self._block_cols) * per_column[fused] + tail)

    def evaluate(self, X: np.ndarray,
                 adjoints: Callable[[np.ndarray, slice], np.ndarray] | None = None,
                 want_input: bool = True,
                 want_params: bool = False) -> tuple[np.ndarray, BackwardResult | None]:
        """Class-root log values of a batch and, given ``adjoints``, gradients.

        X has shape (B, d), or (d,) for a batch of one; NaN entries mark
        marginalized variables, and +-inf raises ValueError.  Each
        column block runs forward and, with ``adjoints``, backward at once:
        ``adjoints(values, rows)`` maps the block's class-root log values,
        (b, C), and its row slice of X to the adjoints of the differentiated
        quantity with respect to those values, (b, C).  Classes that share a
        root node add their adjoints.  Returns the (B, C) values and the
        requested gradients, or None without adjoints.  Subtrees whose log
        value is -inf propagate a zero adjoint (the dead-branch convention).
        Input gradients of marginalized coordinates and of categorical leaves
        are zero.  Parameter gradients are each block's own, added in block
        order.  A non-finite adjoint, or a categorical value that is not an
        integer in [0, size), raises ValueError, and so does an ``adjoints``
        result of another shape than (b, C).
        """
        X = _points(X, self.d)[0]
        C = len(self._root_rows)
        values = np.empty((X.shape[0], C))
        result = None if adjoints is None else self._result(X.shape[0], want_input, want_params)
        # Every block's arrays come from one workspace, sized before the first.
        ws = self._workspace(X.shape[0], fused=result is not None)
        for cols in self._column_blocks(X.shape[0]):
            ws.top = 0
            XT, V, saved = self._forward_block(ws, X[cols], keep=result is not None)
            values[cols] = V[self._root_rows].T
            if result is not None:
                seeds = adjoints(values[cols], cols)
                if np.shape(seeds) != (V.shape[1], C):
                    raise ValueError(f"adjoints returned an array of shape {np.shape(seeds)} "
                                     f"for values of shape {(V.shape[1], C)}")
                A = ws.take(*V.shape)
                A.fill(0.0)
                _scatter_add(A, self._root_rows, np.transpose(seeds), self._roots_unique)
                self._backward_block(ws, V, A, XT, result, cols, saved)
        return values, result

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Log values of the materialized nodes on a batch: :meth:`evaluate`'s
        forward sweep alone, so that it can be timed on its own.

        X is checked as :meth:`evaluate` checks it.  Returns V of shape
        (materialized nodes, B); read it with :meth:`root_values`.
        """
        X = _points(X, self.d)[0]
        ws = self._workspace(X.shape[0], fused=False)
        parts = []
        for cols in self._column_blocks(X.shape[0]):
            ws.top = 0
            parts.append(self._forward_block(ws, X[cols], keep=False)[1].copy())
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    def _forward_block(self, ws: _Workspace, X: np.ndarray,
                       keep: bool) -> tuple[np.ndarray, np.ndarray, tuple | None]:
        """The (d, b) inputs XT of the column block X, (b, d), its node values
        V, (materialized nodes, b), taken from ws, and if ``keep``, the
        statistics T of each leaf-region bucket and what each step saves for
        the backward pass, left on top of ws (else None, and ws holds only V)."""
        XT = np.ascontiguousarray(X.T)
        V = ws.take(self.n_rows, X.shape[0])
        stats = [_kept(ws, keep, region.forward, V, XT, p)
                 for region, p in zip(self._regions, self._natural)]
        self._leaf_values(XT, V)
        kept = [_kept(ws, keep, step.forward, V, params)
                for step, params in zip(self._steps, self._weights)]
        return XT, V, (stats, kept) if keep else None

    def _leaf_values(self, XT: np.ndarray, V: np.ndarray) -> None:
        """Bernoulli and categorical leaf log values from (d, B) inputs; a
        marginalized leaf is log 1 = 0.  A categorical value that is not an
        integer in [0, size) raises ValueError naming its variable."""
        if self.bernoulli_ids.size:
            Xb = XT[self._bernoulli.variables]
            _, lp, l1p = self._bernoulli_params
            with np.errstate(invalid="ignore"):
                t1 = np.where(Xb == 0.0, 0.0, Xb * lp)
                t2 = np.where(Xb == 1.0, 0.0, (1.0 - Xb) * l1p)
            V[self._bernoulli_rows] = np.where(np.isnan(Xb), 0.0, t1 + t2)
        if self.categorical_ids.size:
            Xc = XT[self.categorical_vars]
            absent = np.isnan(Xc)
            k = np.where(absent, 0.0, Xc)
            bad = (k != np.floor(k)) | (k < 0) | (k >= self.categorical_sizes[:, None])
            if bad.any():
                leaf, col = np.argwhere(bad)[0]
                raise ValueError(
                    f"variable {self.categorical_vars[leaf]} has categorical value "
                    f"{float(k[leaf, col])!r}, not an integer in "
                    f"[0, {self.categorical_sizes[leaf]})")
            vals = self.categorical_log_probs[self.categorical_offsets[:, None]
                                              + k.astype(np.int64)]
            V[self._categorical_rows] = np.where(absent, 0.0, vals)

    def root_values(self, V: np.ndarray) -> np.ndarray:
        """Class-root log values, (B, C), from a :meth:`forward` result."""
        return V[self._root_rows].T

    def backward(self, V: np.ndarray, X: np.ndarray,
                 seeds: dict[int, np.ndarray],
                 want_input: bool = True,
                 want_params: bool = False) -> BackwardResult:
        """:meth:`evaluate`'s gradients on X, seeded at class-root nodes.

        ``seeds`` maps a class-root node id to a (B,)-vector of adjoints with
        respect to that root's log value; a root that serves several classes
        takes its seed once.  V, :meth:`forward`'s result on X, must have one
        column per row of X; :meth:`evaluate` computes the node values again.
        """
        X = _points(X, self.d)[0]
        if V.shape[1] != len(X):
            raise ValueError(f"V has {V.shape[1]} columns, X has {len(X)} rows")
        roots = list(self.structure.class_roots)
        seed = np.zeros((len(X), len(roots)))
        for node_id, vec in seeds.items():
            if node_id not in roots:
                raise ValueError(f"seed at node {node_id}, which is not a class root")
            seed[:, roots.index(node_id)] = vec
        return self.evaluate(X, lambda values, rows: seed[rows], want_input, want_params)[1]

    def _result(self, B: int, want_input: bool, want_params: bool) -> BackwardResult:
        """Zero gradients of B rows, for the requested fields."""
        result = BackwardResult(input_grads=np.zeros((B, self.d)) if want_input else None)
        if want_params:
            result.sum_log_weight_grads = [np.zeros_like(w) for w in self.sum_log_weights]
            result.gaussian_mean_grads = np.zeros(self.gaussian_ids.size)
            result.gaussian_variance_grads = np.zeros(self.gaussian_ids.size)
            result.bernoulli_p_grads = np.zeros(self.bernoulli_ids.size)
        return result

    def _backward_block(self, ws: _Workspace, V: np.ndarray, A: np.ndarray, XT: np.ndarray,
                        result: BackwardResult, cols: slice, saved: tuple) -> None:
        """Propagate one column block's seeded adjoints A down to result;
        ``saved`` is what :meth:`_forward_block` kept for this V."""
        stats, kept = saved
        grads = dict(zip(self._sums, result.sum_log_weight_grads or []))
        for step, params, factors in zip(reversed(self._steps), reversed(self._weights),
                                         reversed(kept)):
            step.backward(ws, V, A, params, grads.get(step), factors)
        if not np.all(np.isfinite(A)):
            raise ValueError("non-finite adjoint in the backward pass; "
                             "check the seeds and the circuit's parameters")
        gx = None if result.input_grads is None else result.input_grads[cols].T
        for region, p, T in zip(self._regions, self._natural, stats):
            region.backward(ws, A, T, p, gx, result)
        self._leaf_grads(XT, A, result, gx)

    def _leaf_grads(self, XT: np.ndarray, A: np.ndarray, result: BackwardResult,
                    gx: np.ndarray | None) -> None:
        """Add Bernoulli input and parameter gradients of (d, B) inputs to
        result; gx is the block's (d, B) view of the input gradients."""
        params = result.gaussian_mean_grads is not None
        if self.bernoulli_ids.size:
            b = self._bernoulli
            Ab = A[self._bernoulli_rows]
            Xb = XT[b.variables]
            # A dead leaf (zero adjoint) adds exactly 0, also where p is 0 or 1
            # and its derivatives are infinite.
            live = (Ab != 0.0) & ~np.isnan(Xb)
            p, lp, l1p = self._bernoulli_params
            with np.errstate(divide="ignore", invalid="ignore"):
                if gx is not None:
                    dx = np.where(live, Ab * (lp - l1p), 0.0)
                    if not np.all(np.isfinite(dx)):
                        raise ValueError("non-finite input gradient: a live Bernoulli "
                                         "leaf has p = 0 or 1, so its logit is infinite")
                    b.add_to(gx, dx)
                if params:
                    # One-sided at p = 0 or 1, as in _leaf_values: the x / p term
                    # is 0 at x = 0 and the (1 - x) / (1 - p) term is 0 at x = 1.
                    dp = (np.where(Xb == 0.0, 0.0, Xb / p)
                          - np.where(Xb == 1.0, 0.0, (1.0 - Xb) / (1.0 - p)))
                    result.bernoulli_p_grads[b.order] += np.where(
                        live, Ab * dp, 0.0).sum(axis=1)


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Compiled form of a circuit, kept in the circuit's instance dict as a
    ``functools.cached_property`` is, so it lives exactly as long as the
    circuit; copies start without one.  Circuits and compiled instances are
    read-only, so the form is exact for the circuit's lifetime.  A trainer
    gets instances with new parameters from
    :meth:`CompiledCircuit.with_parameters`.
    """
    if "_compiled" not in vars(circuit):
        vars(circuit)["_compiled"] = CompiledCircuit(circuit)
    return vars(circuit)["_compiled"]
