"""Batched evaluation and differentiation of circuits, tensorized by region.

``compile_circuit`` lowers a :class:`~cfspn.circuit.Circuit` into a few
dense array operations per topological level.  Sum nodes that share one
children tuple form a *group*: the S sums of a region, or the C class roots.
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

``forward`` returns one row of log values per materialized node (leaves,
unabsorbed products, sums); ``root_values`` reads the class roots from it.
``backward`` is the transposed contraction, from class-root seeds down to
input coordinates and, optionally, to leaf and sum parameters.

Sum-node log-weights live in one (sums, children) array per bucket
(``sum_log_weights``), columns in each node's own child order, and their
gradients come back in the same layout, so a trainer updates every sum of a
bucket with one array operation.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .circuit import (
    LOG_2PI,
    BernoulliLeaf,
    CategoricalLeaf,
    Circuit,
    GaussianLeaf,
    ProductNode,
    SumNode,
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

    def backward(self, V: np.ndarray, A: np.ndarray, grad=None) -> None:
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
        return (left[:, :, :, None, :] * right[:, :, None, :, :]).reshape(G, -1, B), M

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

    def forward(self, V: np.ndarray) -> None:
        P, M = self._terms(V)
        T = self._weights() @ P
        with np.errstate(divide="ignore"):
            out = np.log(T)
        out += M[:, None, :]
        low = T < _LOW
        if low.any():
            g, s, b, terms = self._exact(V, low)
            out[g, s, b] = logsumexp(terms, axis=1)
        V[self.rows] = out.reshape(-1, V.shape[1])

    def backward(self, V: np.ndarray, A: np.ndarray,
                 grad: np.ndarray | None = None) -> None:
        """Add the children's adjoints to A, and the log-weight gradients to grad."""
        W = self._weights()
        P, _ = self._terms(V)
        T = W @ P
        low = T < _LOW
        adjoint = A[self.rows].reshape(T.shape)
        Q = np.zeros_like(T)
        np.divide(adjoint, T, out=Q, where=~low)
        H = W.transpose(0, 2, 1) @ Q
        H *= P
        if self.right is None:
            _scatter_add(A, self.left, H.reshape(*self.left.shape, -1), self.unique)
        else:
            H = H.reshape(*self.left.shape, self.right.shape[2], -1)
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
        nodes = circuit.nodes
        n = len(nodes)
        self.d = circuit.num_variables

        # Sum groups, and the one group (if any) that alone reads each node.
        groups: dict[tuple[int, ...], list[int]] = {}
        for i, node in enumerate(nodes):
            if isinstance(node, SumNode):
                groups.setdefault(node.children, []).append(i)
        owner = np.full(n, -2, dtype=np.int64)
        for g, children in enumerate(groups):
            children = np.unique(children)
            owner[children] = np.where(owner[children] == -2, g, -1)
        for node in nodes:
            if isinstance(node, ProductNode):
                owner[list(node.children)] = -1
        owner[list(circuit.class_roots)] = -1

        absorbed = np.zeros(n, dtype=bool)
        group_blocks = []
        for g, children in enumerate(groups):
            blocks = None
            if all(isinstance(nodes[c], ProductNode) and len(nodes[c].children) == 2
                   and owner[c] == g for c in children):
                blocks = _blocks(np.array([nodes[c].children for c in children]))
            if blocks is not None:
                absorbed[list(children)] = True
            group_blocks.append(blocks)

        # Levels of the materialized nodes, in one topological sweep; leaves
        # are level 0, and a group's level is set at its first sum.
        level = np.zeros(n, dtype=np.int64)
        group_of = {i: g for g, sums in enumerate(groups.values()) for i in sums}
        group_list = list(groups.items())
        g_ids, b_ids, c_ids = [], [], []
        products: dict[tuple[int, int], list[int]] = {}
        buckets: dict[tuple, list[int]] = {}
        for i, node in enumerate(nodes):
            if isinstance(node, GaussianLeaf):
                g_ids.append(i)
            elif isinstance(node, BernoulliLeaf):
                b_ids.append(i)
            elif isinstance(node, CategoricalLeaf):
                c_ids.append(i)
            elif isinstance(node, ProductNode):
                if not absorbed[i]:
                    level[i] = 1 + level[list(node.children)].max()
                    products.setdefault((level[i], len(node.children)), []).append(i)
            elif level[i] == 0:
                g = group_of[i]
                children, sums = group_list[g]
                blocks = group_blocks[g]
                if blocks is None:
                    inputs = list(children)
                    shape = (1, len(children), 1, False)
                else:
                    inputs = [c for block in blocks for part in block for c in part]
                    shape = (len(blocks), len(blocks[0][0]), len(blocks[0][1]), True)
                level[sums] = 1 + level[inputs].max()
                buckets.setdefault((level[i], len(sums), *shape), []).append(g)

        self.gaussian_ids = np.asarray(g_ids, dtype=np.int64)
        self.gaussian_vars = np.array([nodes[i].variable for i in g_ids], dtype=np.int64)
        self.gaussian_mean = np.array([nodes[i].mean for i in g_ids], dtype=np.float64)
        self.gaussian_variance = np.array([nodes[i].variance for i in g_ids],
                                          dtype=np.float64)
        self.bernoulli_ids = np.asarray(b_ids, dtype=np.int64)
        self.bernoulli_vars = np.array([nodes[i].variable for i in b_ids], dtype=np.int64)
        self.bernoulli_p = np.array([nodes[i].p for i in b_ids], dtype=np.float64)
        self.categorical_ids = np.asarray(c_ids, dtype=np.int64)
        self.categorical_vars = np.array([nodes[i].variable for i in c_ids],
                                         dtype=np.int64)
        sizes = np.array([nodes[i].probabilities.size for i in c_ids], dtype=np.int64)
        # every leaf's log probabilities, concatenated; leaf r starts at offset r
        self.categorical_offsets = np.cumsum(sizes) - sizes
        self.categorical_sizes = sizes
        with np.errstate(divide="ignore"):
            self.categorical_log_probs = np.log(np.concatenate(
                [nodes[i].probabilities for i in c_ids] or [np.empty(0)]))
        self._gaussian = _ByVariable(self.gaussian_vars)
        self._bernoulli = _ByVariable(self.bernoulli_vars)

        # Rows: leaves by family, then level by level products and sum buckets.
        row_of = np.full(n, -1, dtype=np.int64)
        top = 0

        def take(ids: list[int]) -> slice:
            nonlocal top
            row_of[ids] = np.arange(top, top + len(ids))
            top += len(ids)
            return slice(top - len(ids), top)

        self._gaussian_rows = take(self.gaussian_ids[self._gaussian.order])
        self._bernoulli_rows = take(self.bernoulli_ids[self._bernoulli.order])
        self._categorical_rows = take(c_ids)
        self._steps: list[_Products | _Sums] = []
        self._sums: list[_Sums] = []
        for lev in range(1, int(level.max(initial=0)) + 1):
            for (plev, _), ids in sorted(products.items()):
                if plev == lev:
                    rows = take(ids)
                    children = row_of[np.array([nodes[i].children for i in ids])]
                    self._steps.append(_Products(
                        rows, children, all(map(_is_unique, children.T))))
            for key, members in buckets.items():
                if key[0] != lev:
                    continue
                paired = key[-1]
                sum_ids = [i for g in members for i in group_list[g][1]]
                rows = take(sum_ids)
                if paired:
                    left = row_of[np.array([[L for L, _ in group_blocks[g]]
                                            for g in members])]
                    right = row_of[np.array([[R for _, R in group_blocks[g]]
                                             for g in members])]
                else:
                    children = np.array([group_list[g][0] for g in members])
                    left, right = row_of[children][:, None, :], None
                log_weights = np.array([nodes[i].log_weights for i in sum_ids],
                                       dtype=np.float64)
                step = _Sums(rows, np.asarray(sum_ids, dtype=np.int64), left, right,
                             log_weights,
                             _is_unique(left) and (right is None or _is_unique(right)))
                self._steps.append(step)
                self._sums.append(step)
        self.n_rows = top
        self._row_of = row_of
        self._root_rows = row_of[list(circuit.class_roots)]
        # Batch columns per block, so that no temporary outgrows _BLOCK_ELEMENTS.
        widest = max([s.log_weights.shape[1] * s.left.shape[0] for s in self._sums]
                     + [self.n_rows])
        self._block_cols = max(1, _BLOCK_ELEMENTS // widest)

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

        Leaf and sum nodes are rebuilt from the compiled arrays; product and
        categorical nodes, which carry no trained parameters, are shared.
        """
        source = self.circuit
        nodes = list(source.nodes)
        for row, i in enumerate(self.gaussian_ids):
            nodes[i] = GaussianLeaf(nodes[i].variable,
                                    float(self.gaussian_mean[row]),
                                    float(self.gaussian_variance[row]))
        for row, i in enumerate(self.bernoulli_ids):
            nodes[i] = BernoulliLeaf(nodes[i].variable, float(self.bernoulli_p[row]))
        for i, lw in self.per_sum_node(self.sum_log_weights).items():
            nodes[i] = SumNode(nodes[i].children, lw)
        return Circuit(nodes, source.class_roots, log_prior,
                       source.num_variables, source.format_version)

    def _column_blocks(self, B: int) -> list[slice]:
        return [slice(b, min(b + self._block_cols, B))
                for b in range(0, max(B, 1), self._block_cols)]

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Log values of the materialized nodes on a batch.

        X has shape (B, d); NaN entries mark marginalized variables.  Returns
        V of shape (materialized nodes, B); read it with :meth:`root_values`
        and pass it to :meth:`backward`.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ValueError(f"expected shape (batch, {self.d}), got {X.shape}")
        # Each column block is computed in a contiguous array of its own.
        parts = []
        for cols in self._column_blocks(X.shape[0]):
            V = np.empty((self.n_rows, cols.stop - cols.start))
            self._leaf_values(np.ascontiguousarray(X[cols].T), V)
            for step in self._steps:
                step.forward(V)
            parts.append(V)
        return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)

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
        X = np.asarray(X, dtype=np.float64)
        B = V.shape[1]
        for node_id in seeds:
            if node_id not in self.circuit.class_roots:
                raise ValueError(f"seed at node {node_id}, which is not a class root")
        result = BackwardResult()
        if want_input:
            result.input_grads = np.zeros((B, self.d))
        if want_params:
            result.sum_log_weight_grads = [np.zeros_like(s.log_weights)
                                           for s in self._sums]
            result.gaussian_mean_grads = np.zeros(self.gaussian_ids.size)
            result.gaussian_variance_grads = np.zeros(self.gaussian_ids.size)
            result.bernoulli_p_grads = np.zeros(self.bernoulli_ids.size)
        grads = dict(zip(self._sums, result.sum_log_weight_grads or []))
        for cols in self._column_blocks(B):
            Vc = np.ascontiguousarray(V[:, cols])
            A = np.zeros_like(Vc)
            for node_id, vec in seeds.items():
                A[self._row_of[node_id]] += np.broadcast_to(vec, (B,))[cols]
            for step in reversed(self._steps):
                step.backward(Vc, A, grads.get(step))
            if not np.all(np.isfinite(A)):
                raise ValueError("non-finite adjoint in the backward pass; "
                                 "check the seeds and the circuit's parameters")
            self._leaf_grads(np.ascontiguousarray(X[cols].T), A, result, cols)
        return result

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
            observed = ~np.isnan(Xb)
            p = self.bernoulli_p[b.order, None]
            if gx is not None:
                with np.errstate(divide="ignore"):
                    logit = np.log(p) - np.log1p(-p)
                b.add_to(gx, Ab * np.where(observed, logit, 0.0))
            if params:
                safe = np.where(observed, Xb, 0.0)
                result.bernoulli_p_grads[b.order] += np.where(
                    observed, Ab * (safe / p - (1.0 - safe) / (1.0 - p)), 0.0).sum(axis=1)


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
