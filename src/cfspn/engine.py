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

    log(W @ (exp(L - m_L) (x) exp(R - m_R) * sc)) + M,

with one (S, K*I*J) weight matrix, per-block shifts m_L, m_R, and block
scales sc = exp(m_L + m_R - M) under the largest block shift M.  The shifts
ignore the weights, so where a contraction comes out tiny (a sum whose
heaviest children carry next to no weight) that sum is recomputed in log
space, one term per child product.  Groups of equal shape at one level are
stacked into a bucket and computed with one batched matmul.  A group whose
children are not such blocks is one block with J = 1 and no right factor.
The remaining products are summed per arity.

A batch of any size is evaluated in column blocks of rows: at most
``_BLOCK_COLS`` (256) columns, and few enough that no temporary array
outgrows ``_BLOCK_ELEMENTS``.  Callers pass whole batches; the blocks are
the only place that splits one, so they alone fix the widths of the matrix
products, whose results can round differently at another width.
``evaluate`` makes one pass per block.  It computes the log values of every
materialized node (leaves, unabsorbed products, sums) and reads the block's
class-root values.  Given adjoints, it then derives the block's class-root
seeds from those values and runs the transposed contraction down to input
coordinates and, optionally, to leaf and sum parameters; each sum step
reuses the child products it built on the way up.  The node values never
leave the block.  Without adjoints the pass is forward only: it keeps no
child products and returns only the class-root values.  ``forward`` and
``backward`` run the same block code as two passes over an array of node
values that ``forward`` returns; ``backward`` then builds the child
products again.

Sum-node log-weights live in one (sums, children) array per bucket
(``sum_log_weights``), columns in each node's own child order, and their
gradients come back in the same layout, so a trainer updates every sum of a
bucket with one array operation; ``to_circuit`` writes them back into the
circuit's per-edge ``log_weights``.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .circuit import (
    BERNOULLI,
    CATEGORICAL,
    GAUSSIAN,
    LOG_2PI,
    PRODUCT,
    SUM,
    Circuit,
    _bottom_up,
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
#: batches are split into column blocks: on the d=64 benchmark model, 16 MB
#: temporaries instead of one 256-column block halved the largest bucket's
#: B=256 passes.
_BLOCK_ELEMENTS = 1 << 21

#: Most columns in one block; without it a small circuit would run a large
#: batch as one block.  Matrix products can round differently at another
#: width, so the block widths, set by this value and _BLOCK_ELEMENTS alone,
#: decide the last bits of every result.  Where blocks are 256 columns wide,
#: every 256-row slice of a batch, counted from row 0, gets the bits it gets
#: on its own.
_BLOCK_COLS = 256


def _exp_cut(a: np.ndarray) -> np.ndarray:
    """exp(a) for a <= 0, with every a below -_CUT (or -inf) giving exactly 0."""
    out = np.zeros_like(a)
    return np.exp(a, out=out, where=a > -_CUT)


def _finite_or_zero(a: np.ndarray) -> np.ndarray:
    return np.where(np.isfinite(a), a, 0.0)


def _scatter_add(A: np.ndarray, rows: np.ndarray, values: np.ndarray,
                 unique: bool) -> None:
    """A[rows] += values, accumulating rows that appear more than once."""
    if unique:
        A[rows] += values
    else:
        np.add.at(A, rows, values)


def _is_unique(rows: np.ndarray) -> bool:
    return np.unique(rows).size == rows.size


class _ByVariable:
    """A leaf family's rows sorted by variable, so per-variable sums are one reduce."""

    def __init__(self, variables: np.ndarray):
        self.order = np.argsort(variables, kind="stable")   # row r holds leaf order[r]
        self.variables = variables[self.order]
        self.starts = np.flatnonzero(np.diff(self.variables, prepend=-1))

    def add_to(self, out: np.ndarray, rows: np.ndarray) -> None:
        """out[v] += the sum of the (sorted) rows on variable v."""
        if self.order.size:
            out[self.variables[self.starts]] += np.add.reduceat(rows, self.starts, axis=0)


@dataclass(eq=False)
class _Products:
    """The materialized products of one arity at one level."""

    rows: slice              # output rows
    children: np.ndarray     # (n, arity) child rows
    unique: bool             # no row repeats within a column of children

    def forward(self, V: np.ndarray) -> None:
        out = V[self.rows]
        out[...] = V[self.children[:, 0]]
        for column in self.children.T[1:]:
            out += V[column]

    def backward(self, V: np.ndarray, A: np.ndarray, grad=None, saved=None) -> None:
        adjoint = A[self.rows]
        for column in self.children.T:
            _scatter_add(A, column, adjoint, self.unique)


@dataclass(eq=False)
class _Sums:
    """G groups of S sums over K blocks of I x J products, at one level."""

    rows: slice                # G*S output rows, group-major
    ids: np.ndarray            # node id of each output row
    left: np.ndarray           # (G, K, I) rows of the left factors
    right: np.ndarray | None   # (G, K, J) rows; None for a single factor (J = 1)
    log_weights: np.ndarray    # (G*S, K*I*J), columns in child order
    unique: bool               # no row repeats within left, nor within right

    def _weights(self) -> np.ndarray:
        return np.exp(self.log_weights).reshape(self.left.shape[0], -1,
                                                self.log_weights.shape[1])

    def _terms(self, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Child products exp(L + R - M), (G, K*I*J, B), and M, (G, B).

        M is the largest block shift m_L + m_R, so every term is at most 1;
        where every block is -inf, M is 0 and every term is 0.
        """
        G, K, I = self.left.shape
        B = V.shape[1]
        L = V[self.left]
        m = L.max(axis=2)
        if self.right is None:
            M = _finite_or_zero(m.max(axis=1))
            return _exp_cut(L - M[:, None, None, :]).reshape(G, K * I, B), M
        R = V[self.right]
        m_right = R.max(axis=2)
        M = _finite_or_zero((m + m_right).max(axis=1))
        left = _exp_cut(L + (m_right - M[:, None, :])[:, :, None, :])
        right = _exp_cut(R - _finite_or_zero(m_right)[:, :, None, :])
        terms = left[:, :, :, None, :] * right[:, :, None, :, :]
        return terms.reshape(G, K * I * R.shape[2], B), M

    def _log_terms(self, V: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Log child products, (n, K*I*J), of group g[k] at batch column b[k]."""
        L = V[self.left[g], b[:, None, None]]
        if self.right is None:
            return L.reshape(len(g), -1)
        R = V[self.right[g], b[:, None, None]]
        return (L[:, :, :, None] + R[:, :, None, :]).reshape(len(g), -1)

    def _exact(self, V: np.ndarray, low: np.ndarray):
        """The (g, s, b) indices where ``low`` holds, and those sums' log terms."""
        g, s, b = np.nonzero(low)
        lw = self.log_weights.reshape(low.shape[0], low.shape[1], -1)[g, s]
        return g, s, b, lw + self._log_terms(V, g, b)

    def forward(self, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Write the sums' log values into V; return the terms P and contractions T."""
        P, M = self._terms(V)
        T = self._weights() @ P
        with np.errstate(divide="ignore"):
            out = np.log(T)
        out += M[:, None, :]
        low = T < _LOW
        if low.any():
            g, s, b, terms = self._exact(V, low)
            out[g, s, b] = logsumexp(terms, axis=1)
        V[self.rows] = out.reshape(len(self.ids), V.shape[1])
        return P, T

    def backward(self, V: np.ndarray, A: np.ndarray,
                 grad: np.ndarray | None = None,
                 saved: tuple[np.ndarray, np.ndarray] | None = None) -> None:
        """Add the children's adjoints to A, and the log-weight gradients to grad.

        ``saved`` is the (P, T) that :meth:`forward` returned on the same V;
        without it both are computed again.
        """
        W = self._weights()
        if saved is None:
            P = self._terms(V)[0]
            T = W @ P
        else:
            P, T = saved
        low = T < _LOW
        adjoint = A[self.rows].reshape(T.shape)
        Q = np.zeros_like(T)
        np.divide(adjoint, T, out=Q, where=~low)
        H = W.transpose(0, 2, 1) @ Q
        H *= P
        if self.right is None:
            _scatter_add(A, self.left, H.reshape(*self.left.shape, -1), self.unique)
        else:
            H = H.reshape(*self.left.shape, self.right.shape[2], V.shape[1])
            _scatter_add(A, self.left, H.sum(axis=3), self.unique)
            _scatter_add(A, self.right, H.sum(axis=2), self.unique)
        if grad is not None:
            grad += ((Q @ P.transpose(0, 2, 1)) * W).reshape(grad.shape)
        # The sums recomputed in log space; a dead one (-inf) passes nothing.
        out = V[self.rows].reshape(T.shape)
        live = low & np.isfinite(out) & (adjoint != 0.0)
        if live.any():
            g, s, b, terms = self._exact(V, live)
            flow = np.exp(terms - out[g, s, b][:, None]) * adjoint[g, s, b][:, None]
            per_child = flow.reshape(len(g), *self.left.shape[1:], -1)
            np.add.at(A, (self.left[g], b[:, None, None]), per_child.sum(axis=3))
            if self.right is not None:
                np.add.at(A, (self.right[g], b[:, None, None]), per_child.sum(axis=2))
            if grad is not None:
                np.add.at(grad, g * T.shape[1] + s, flow)


def _blocks(pairs: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """Split (left, right) child pairs into runs that list L x R row-major.

    Returns the (L, R) of each run, or None unless every run has the same
    I x J shape.
    """
    blocks = []
    p, n = 0, len(pairs)
    while p < n:
        J = int(np.argmax(np.append(pairs[p:, 0] != pairs[p, 0], True)))
        R = pairs[p:p + J, 1]
        q = p + J
        while (q + J <= n and np.array_equal(pairs[q:q + J, 1], R)
               and np.all(pairs[q:q + J, 0] == pairs[q, 0])):
            q += J
        blocks.append((pairs[p:q:J, 0], R))
        p = q
    if len({(len(L), len(R)) for L, R in blocks}) != 1:
        return None
    return blocks


@dataclass
class BackwardResult:
    """Gradients from one reverse pass; unrequested fields stay None."""

    input_grads: np.ndarray | None = None       # (B, d)
    sum_log_weight_grads: list[np.ndarray] | None = None  # like sum_log_weights
    gaussian_mean_grads: np.ndarray | None = None      # aligned with gaussian_ids
    gaussian_variance_grads: np.ndarray | None = None
    bernoulli_p_grads: np.ndarray | None = None


class CompiledCircuit:
    """Bucketed-array form of a circuit, reusable across evaluations.

    Parameters are copied into numpy arrays owned by this object.  Writing
    into them changes what this instance computes and nothing else; a trainer
    does so on a private instance and reads the result back with
    :meth:`to_circuit`.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        n = len(circuit.nodes)
        self.d = circuit.num_variables
        kind, ptr, ids = circuit.kind, circuit.ptr, circuit.ids
        arity = np.diff(ptr)

        # Sum groups: the sums with equal children, keyed by the first of them.
        sums = np.flatnonzero(kind == SUM)
        first = np.empty(n, dtype=np.int64)
        for k in np.unique(arity[sums]):
            members = sums[arity[sums] == k]
            _, at, inverse = np.unique(ids[ptr[members][:, None] + np.arange(k)], axis=0,
                                       return_index=True, return_inverse=True)
            first[members] = members[at][inverse.ravel()]
        heads = np.unique(first[sums])
        group_sums = [sums[first[sums] == h] for h in heads]
        group_children = [ids[ptr[h]:ptr[h + 1]] for h in heads]

        # The one group (if any) that alone reads each node.
        owner = np.full(n, -2, dtype=np.int64)
        for g, children in enumerate(group_children):
            children = np.unique(children)
            owner[children] = np.where(owner[children] == -2, g, -1)
        owner[ids[np.repeat(kind == PRODUCT, arity)]] = -1
        owner[list(circuit.class_roots)] = -1

        absorbed = np.zeros(n, dtype=bool)
        group_blocks = []
        for g, children in enumerate(group_children):
            blocks = None
            if np.all((kind[children] == PRODUCT) & (arity[children] == 2)
                      & (owner[children] == g)):
                blocks = _blocks(ids[ptr[children][:, None] + np.arange(2)])
                absorbed[children] = blocks is not None
            group_blocks.append(blocks)

        # Levels of the materialized nodes: leaves are level 0, and an absorbed
        # product passes its children's level to the sums that absorb it.
        level = _bottom_up(circuit, np.maximum, np.zeros(n, dtype=np.int64),
                           ~absorbed[kind >= SUM])
        buckets: dict[tuple, list[int]] = {}
        for g, (head, blocks) in enumerate(zip(heads, group_blocks)):
            if blocks is None:
                shape = (1, arity[head], 1, False)
            else:
                shape = (len(blocks), len(blocks[0][0]), len(blocks[0][1]), True)
            buckets.setdefault((level[head], len(group_sums[g]), *shape), []).append(g)
        products = np.flatnonzero((kind == PRODUCT) & ~absorbed)

        self.gaussian_ids = np.flatnonzero(kind == GAUSSIAN)
        self.gaussian_vars = circuit.variable[self.gaussian_ids]
        self.gaussian_mean = np.array(circuit.mean)
        self.gaussian_variance = np.array(circuit.variance)
        self.bernoulli_ids = np.flatnonzero(kind == BERNOULLI)
        self.bernoulli_vars = circuit.variable[self.bernoulli_ids]
        self.bernoulli_p = np.array(circuit.p)
        self.categorical_ids = np.flatnonzero(kind == CATEGORICAL)
        self.categorical_vars = circuit.variable[self.categorical_ids]
        # every leaf's log probabilities, concatenated; leaf r starts at offset r
        self.categorical_offsets = circuit.probs_ptr[:-1]
        self.categorical_sizes = np.diff(circuit.probs_ptr)
        with np.errstate(divide="ignore"):
            self.categorical_log_probs = np.log(circuit.probs)
        self._gaussian = _ByVariable(self.gaussian_vars)
        self._bernoulli = _ByVariable(self.bernoulli_vars)

        # Rows: leaves by family, then level by level products and sum buckets.
        row_of = np.full(n, -1, dtype=np.int64)
        top = 0

        def take(ids: np.ndarray) -> slice:
            nonlocal top
            row_of[ids] = np.arange(top, top + len(ids))
            top += len(ids)
            return slice(top - len(ids), top)

        self._gaussian_rows = take(self.gaussian_ids[self._gaussian.order])
        self._bernoulli_rows = take(self.bernoulli_ids[self._bernoulli.order])
        self._categorical_rows = take(self.categorical_ids)
        self._steps: list[_Products | _Sums] = []
        self._sums: list[_Sums] = []
        for lev in range(1, int(level.max(initial=0)) + 1):
            at_level = products[level[products] == lev]
            for k in np.unique(arity[at_level]):
                members = at_level[arity[at_level] == k]
                rows = take(members)
                children = row_of[ids[ptr[members][:, None] + np.arange(k)]]
                self._steps.append(_Products(
                    rows, children, all(map(_is_unique, children.T))))
            for key, members in buckets.items():
                if key[0] != lev:
                    continue
                sum_ids = np.concatenate([group_sums[g] for g in members])
                rows = take(sum_ids)
                if key[-1]:
                    left = row_of[np.array([[L for L, _ in group_blocks[g]]
                                            for g in members])]
                    right = row_of[np.array([[R for _, R in group_blocks[g]]
                                             for g in members])]
                else:
                    children = np.array([group_children[g] for g in members])
                    left, right = row_of[children][:, None, :], None
                log_weights = circuit.log_weights[ptr[sum_ids][:, None]
                                                  + np.arange(arity[sum_ids[0]])]
                step = _Sums(rows, sum_ids, left, right, log_weights,
                             _is_unique(left) and (right is None or _is_unique(right)))
                self._steps.append(step)
                self._sums.append(step)
        self.n_rows = top
        self._row_of = row_of
        self._root_rows = row_of[list(circuit.class_roots)]
        # Batch columns per block, so that no temporary outgrows _BLOCK_ELEMENTS.
        widest = max([s.log_weights.shape[1] * s.left.shape[0] for s in self._sums]
                     + [self.n_rows])
        self._block_cols = min(_BLOCK_COLS, max(1, _BLOCK_ELEMENTS // widest))

    @property
    def sum_log_weights(self) -> list[np.ndarray]:
        """Sum-node log-weights as one (sums, children) array per bucket."""
        return [step.log_weights for step in self._sums]

    def per_sum_node(self, arrays: list[np.ndarray]) -> dict[int, np.ndarray]:
        """Rows of per-bucket sum arrays, keyed by sum node id."""
        return {int(i): a[row]
                for step, a in zip(self._sums, arrays)
                for row, i in enumerate(step.ids)}

    def to_circuit(self, log_prior: np.ndarray) -> Circuit:
        """A new circuit holding this instance's current parameters.

        Its structure arrays and categorical leaves are the source circuit's.
        """
        source = self.circuit
        log_weights = np.array(source.log_weights)
        for step in self._sums:
            columns = np.arange(step.log_weights.shape[1])
            log_weights[source.ptr[step.ids][:, None] + columns] = step.log_weights
        return replace(source, log_weights=log_weights, log_prior=log_prior,
                       mean=self.gaussian_mean, variance=self.gaussian_variance,
                       p=self.bernoulli_p)

    def _column_blocks(self, B: int) -> list[slice]:
        return [slice(b, min(b + self._block_cols, B))
                for b in range(0, max(B, 1), self._block_cols)]

    def _batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ValueError(f"expected shape (batch, {self.d}), got {X.shape}")
        return X

    def evaluate(self, X: np.ndarray,
                 adjoints: Callable[[np.ndarray, slice], np.ndarray] | None = None,
                 want_input: bool = True,
                 want_params: bool = False) -> tuple[np.ndarray, BackwardResult | None]:
        """Class-root log values of a batch and, given ``adjoints``, gradients.

        X has shape (B, d); NaN entries mark marginalized variables.  Each
        column block runs forward and, with ``adjoints``, backward at once:
        ``adjoints(values, rows)`` maps the block's class-root log values,
        (b, C), and its row slice of X to the adjoints of the differentiated
        quantity with respect to those values, (b, C).  Classes that share a
        root node add their adjoints.  Returns the (B, C) values and the
        gradients as :meth:`backward` gives them, or None without adjoints.
        """
        X = self._batch(X)
        values = np.empty((X.shape[0], len(self._root_rows)))
        result = None
        if adjoints is not None:
            result = self._result(X.shape[0], want_input, want_params)
        for cols in self._column_blocks(X.shape[0]):
            XT = np.ascontiguousarray(X[cols].T)
            V, saved = self._forward_block(XT, keep=result is not None)
            values[cols] = V[self._root_rows].T
            if result is not None:
                A = np.zeros_like(V)
                np.add.at(A, self._root_rows, np.transpose(adjoints(values[cols], cols)))
                self._backward_block(V, A, XT, result, cols, saved)
        return values, result

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Log values of the materialized nodes on a batch.

        X has shape (B, d); NaN entries mark marginalized variables.  Returns
        V of shape (materialized nodes, B); read it with :meth:`root_values`
        and pass it to :meth:`backward`.  These two run the sweeps of
        :meth:`evaluate` apart, so that each can be timed on its own.
        """
        X = self._batch(X)
        parts = [self._forward_block(np.ascontiguousarray(X[cols].T), keep=False)[0]
                 for cols in self._column_blocks(X.shape[0])]
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

    def _forward_block(self, XT: np.ndarray, keep: bool) -> tuple[np.ndarray, list | None]:
        """V of one column block from its (d, b) inputs, and, if ``keep``, the
        terms each step saves for its backward pass (else None)."""
        V = np.empty((self.n_rows, XT.shape[1]))
        self._leaf_values(XT, V)
        if keep:
            return V, [step.forward(V) for step in self._steps]
        for step in self._steps:
            step.forward(V)
        return V, None

    def _leaf_values(self, XT: np.ndarray, V: np.ndarray) -> None:
        """Leaf log values from (d, B) inputs; a marginalized leaf is log 1 = 0."""
        missing = np.isnan(XT).any()
        if self.gaussian_ids.size:
            g = self._gaussian
            out = V[self._gaussian_rows]
            var = self.gaussian_variance[g.order, None]
            np.subtract(XT[g.variables], self.gaussian_mean[g.order, None], out=out)
            out *= out
            out *= -0.5 / var
            out -= 0.5 * (np.log(var) + LOG_2PI)
            if missing:
                out[np.isnan(out)] = 0.0
        if self.bernoulli_ids.size:
            Xb = XT[self._bernoulli.variables]
            p = self.bernoulli_p[self._bernoulli.order, None]
            with np.errstate(divide="ignore"):
                lp, l1p = np.log(p), np.log1p(-p)
            with np.errstate(invalid="ignore"):
                t1 = np.where(Xb == 0.0, 0.0, Xb * lp)
                t2 = np.where(Xb == 1.0, 0.0, (1.0 - Xb) * l1p)
            V[self._bernoulli_rows] = np.where(np.isnan(Xb), 0.0, t1 + t2)
        if self.categorical_ids.size:
            Xc = XT[self.categorical_vars]
            absent = np.isnan(Xc)
            hi = (self.categorical_sizes - 1)[:, None]
            k = np.clip(np.round(np.where(absent, 0.0, Xc)), 0, hi).astype(np.int64)
            vals = self.categorical_log_probs[self.categorical_offsets[:, None] + k]
            V[self._categorical_rows] = np.where(absent, 0.0, vals)

    def root_values(self, V: np.ndarray) -> np.ndarray:
        """Class-root log values, (B, C), from a :meth:`forward` result."""
        return V[self._root_rows].T

    def backward(self, V: np.ndarray, X: np.ndarray,
                 seeds: dict[int, np.ndarray],
                 want_input: bool = True,
                 want_params: bool = False) -> BackwardResult:
        """Reverse pass from seeded class-root adjoints.

        ``seeds`` maps a class-root node id to a (B,)-vector of adjoints with
        respect to that root's log value.  Subtrees whose log value is -inf
        propagate a zero adjoint (the dead-branch convention).  Input
        gradients of marginalized coordinates and of categorical leaves are
        zero.  A non-finite adjoint raises ValueError.
        """
        X = self._batch(X)
        B = V.shape[1]
        for node_id in seeds:
            if node_id not in self.circuit.class_roots:
                raise ValueError(f"seed at node {node_id}, which is not a class root")
        result = self._result(B, want_input, want_params)
        for cols in self._column_blocks(B):
            Vc = np.ascontiguousarray(V[:, cols])
            A = np.zeros_like(Vc)
            for node_id, vec in seeds.items():
                A[self._row_of[node_id]] += np.broadcast_to(vec, (B,))[cols]
            self._backward_block(Vc, A, np.ascontiguousarray(X[cols].T), result, cols)
        return result

    def _result(self, B: int, want_input: bool, want_params: bool) -> BackwardResult:
        """Zero gradients of B rows, for the requested fields."""
        result = BackwardResult()
        if want_input:
            result.input_grads = np.zeros((B, self.d))
        if want_params:
            result.sum_log_weight_grads = [np.zeros_like(s.log_weights)
                                           for s in self._sums]
            result.gaussian_mean_grads = np.zeros(self.gaussian_ids.size)
            result.gaussian_variance_grads = np.zeros(self.gaussian_ids.size)
            result.bernoulli_p_grads = np.zeros(self.bernoulli_ids.size)
        return result

    def _backward_block(self, V: np.ndarray, A: np.ndarray, XT: np.ndarray,
                        result: BackwardResult, cols: slice, saved=None) -> None:
        """Propagate one column block's seeded adjoints A down to result.

        ``saved`` is what :meth:`_forward_block` kept for this V; without it
        every sum step computes its terms again.
        """
        grads = dict(zip(self._sums, result.sum_log_weight_grads or []))
        for step, kept in zip(reversed(self._steps),
                              reversed(saved or [None] * len(self._steps))):
            step.backward(V, A, grads.get(step), kept)
        if not np.all(np.isfinite(A)):
            raise ValueError("non-finite adjoint in the backward pass; "
                             "check the seeds and the circuit's parameters")
        self._leaf_grads(XT, A, result, cols)

    def _leaf_grads(self, XT: np.ndarray, A: np.ndarray, result: BackwardResult,
                    cols: slice) -> None:
        """Add input and leaf-parameter gradients of (d, B) inputs to result."""
        gx = None if result.input_grads is None else result.input_grads[cols].T
        params = result.gaussian_mean_grads is not None
        if self.gaussian_ids.size:
            g = self._gaussian
            Ag = A[self._gaussian_rows]
            var = self.gaussian_variance[g.order, None]
            Xg = XT[g.variables]
            dx = self.gaussian_mean[g.order, None] - Xg
            observed = ~np.isnan(dx)
            if not observed.all():
                dx[~observed] = 0.0
            dx *= Ag
            dx /= var       # d/d x per leaf and row; d/d mean is its negative
            if gx is not None:
                g.add_to(gx, dx)
            if params:
                diff = np.where(observed, Xg - self.gaussian_mean[g.order, None], 0.0)
                result.gaussian_mean_grads[g.order] -= dx.sum(axis=1)
                result.gaussian_variance_grads[g.order] += np.where(
                    observed, Ag * (diff ** 2 / var - 1.0) / (2.0 * var), 0.0).sum(axis=1)
        if self.bernoulli_ids.size:
            b = self._bernoulli
            Ab = A[self._bernoulli_rows]
            Xb = XT[b.variables]
            # A dead leaf (zero adjoint) adds exactly 0, also where p is 0 or 1
            # and its derivatives are infinite.
            live = (Ab != 0.0) & ~np.isnan(Xb)
            p = self.bernoulli_p[b.order, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                if gx is not None:
                    dx = np.where(live, Ab * (np.log(p) - np.log1p(-p)), 0.0)
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


_cache: "weakref.WeakKeyDictionary[Circuit, CompiledCircuit]" = weakref.WeakKeyDictionary()


def compile_circuit(circuit: Circuit) -> CompiledCircuit:
    """Compiled form of a circuit, cached per instance.

    Circuits are immutable and the cached instance's parameter arrays are
    read-only, so the cached form is exact for the circuit's lifetime.  A
    trainer builds a private :class:`CompiledCircuit` to write into.
    """
    compiled = _cache.get(circuit)
    if compiled is None:
        compiled = CompiledCircuit(circuit)
        for a in (compiled.gaussian_mean, compiled.gaussian_variance,
                  compiled.bernoulli_p, compiled.categorical_log_probs,
                  *compiled.sum_log_weights):
            a.flags.writeable = False
        _cache[circuit] = compiled
    return compiled
