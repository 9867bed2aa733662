"""Layered, vectorized evaluation and differentiation of circuits.

``compile_circuit`` lowers a :class:`~cfspn.circuit.Circuit` into padded
child-index matrices grouped by topological level.  ``forward`` evaluates
every node on a batch in log space; ``backward`` propagates adjoints down
the DAG to input coordinates and, optionally, to leaf and sum parameters.

Sum-node log-weights live in one (K, M) array per level (``sum_log_weights``)
and their gradients come back in the same layout, so a trainer can update
every sum node of a level with one array operation.

Padding convention: a sentinel row (index ``len(nodes)``) holds log value
0.0.  Product pads point at the sentinel; sum pads point at the sentinel
with log weight -inf, so padded edges contribute nothing in either pass.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .circuit import (
    LOG_2PI,
    BernoulliLeaf,
    CategoricalLeaf,
    Circuit,
    GaussianLeaf,
    ProductNode,
    SumNode,
)


def _logsumexp_mid(a: np.ndarray) -> np.ndarray:
    """Stable logsumexp over axis 1 of a (K, M, B) array; all -inf rows stay -inf."""
    m = a.max(axis=1)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - m_safe[:, None, :]).sum(axis=1)) + m_safe
    return np.where(np.isfinite(m), out, m)


def _pad(rows: list, fill, dtype=np.float64) -> np.ndarray:
    """Stack variable-length rows into a (len(rows), max length) array."""
    out = np.full((len(rows), max(map(len, rows), default=0)), fill, dtype=dtype)
    for r, values in enumerate(rows):
        out[r, :len(values)] = values
    return out


@dataclass
class _Level:
    sum_ids: np.ndarray
    sum_children: np.ndarray       # (K, M) padded with sentinel
    sum_log_weights: np.ndarray    # (K, M) padded with -inf
    sum_child_counts: np.ndarray
    sum_scatter: sparse.csr_matrix
    prod_ids: np.ndarray
    prod_children: np.ndarray
    prod_scatter: sparse.csr_matrix


@dataclass
class BackwardResult:
    """Gradients from one reverse pass; unrequested fields stay None."""

    input_grads: np.ndarray | None = None       # (B, d)
    adjoints: np.ndarray | None = None          # (n_nodes + 1, B)
    sum_log_weight_grads: list[np.ndarray] | None = None  # like sum_log_weights, pads 0
    gaussian_mean_grads: np.ndarray | None = None      # aligned with gaussian_ids
    gaussian_variance_grads: np.ndarray | None = None
    bernoulli_p_grads: np.ndarray | None = None


class CompiledCircuit:
    """Padded-array form of a circuit, reusable across evaluations.

    Parameters are copied into numpy arrays owned by this object.  Writing
    into them changes what this instance computes and nothing else; a trainer
    does so on a private instance and reads the result back with
    :meth:`to_circuit`.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        nodes = circuit.nodes
        n = len(nodes)
        self.n_nodes = n
        self.sentinel = n
        self.d = circuit.num_variables

        g_ids, g_vars, g_mean, g_var = [], [], [], []
        b_ids, b_vars, b_p = [], [], []
        cat: list[tuple[int, int, np.ndarray]] = []
        levels_of = np.zeros(n, dtype=np.int64)
        for i, node in enumerate(nodes):
            if isinstance(node, GaussianLeaf):
                g_ids.append(i); g_vars.append(node.variable)
                g_mean.append(node.mean); g_var.append(node.variance)
            elif isinstance(node, BernoulliLeaf):
                b_ids.append(i); b_vars.append(node.variable); b_p.append(node.p)
            elif isinstance(node, CategoricalLeaf):
                cat.append((i, node.variable, node.probabilities))
            else:
                levels_of[i] = 1 + max(levels_of[c] for c in node.children)

        self.gaussian_ids = np.asarray(g_ids, dtype=np.int64)
        self.gaussian_vars = np.asarray(g_vars, dtype=np.int64)
        self.gaussian_mean = np.asarray(g_mean, dtype=np.float64)
        self.gaussian_variance = np.asarray(g_var, dtype=np.float64)
        self.bernoulli_ids = np.asarray(b_ids, dtype=np.int64)
        self.bernoulli_vars = np.asarray(b_vars, dtype=np.int64)
        self.bernoulli_p = np.asarray(b_p, dtype=np.float64)

        self.categorical_ids = np.asarray([c[0] for c in cat], dtype=np.int64)
        self.categorical_vars = np.asarray([c[1] for c in cat], dtype=np.int64)
        with np.errstate(divide="ignore"):
            self.categorical_log_probs = np.log(_pad([c[2] for c in cat], 0.0))
        self.categorical_sizes = np.asarray([c[2].size for c in cat],
                                            dtype=np.int64)

        self._gauss_input_scatter = self._var_scatter(self.gaussian_vars)
        self._bern_input_scatter = self._var_scatter(self.bernoulli_vars)

        self.levels: list[_Level] = []
        for lev in range(1, int(levels_of.max(initial=0)) + 1):
            at = [i for i in range(n) if levels_of[i] == lev
                  and isinstance(nodes[i], (SumNode, ProductNode))]
            sums = [i for i in at if isinstance(nodes[i], SumNode)]
            prods = [i for i in at if isinstance(nodes[i], ProductNode)]
            sum_children = _pad([nodes[i].children for i in sums], n, np.int64)
            prod_children = _pad([nodes[i].children for i in prods], n, np.int64)
            self.levels.append(_Level(
                sum_ids=np.asarray(sums, dtype=np.int64),
                sum_children=sum_children,
                sum_log_weights=_pad([nodes[i].log_weights for i in sums], -np.inf),
                sum_child_counts=np.asarray(
                    [len(nodes[i].children) for i in sums], dtype=np.int64),
                sum_scatter=self._scatter(sum_children),
                prod_ids=np.asarray(prods, dtype=np.int64),
                prod_children=prod_children,
                prod_scatter=self._scatter(prod_children),
            ))

    def _scatter(self, children: np.ndarray) -> sparse.csr_matrix:
        rows = children.ravel()
        cols = np.arange(rows.size)
        return sparse.csr_matrix(
            (np.ones(rows.size), (rows, cols)),
            shape=(self.n_nodes + 1, rows.size))

    def _var_scatter(self, leaf_vars: np.ndarray) -> sparse.csr_matrix:
        cols = np.arange(leaf_vars.size)
        return sparse.csr_matrix(
            (np.ones(leaf_vars.size), (leaf_vars, cols)),
            shape=(self.d, leaf_vars.size))

    @property
    def sum_log_weights(self) -> list[np.ndarray]:
        """Sum-node log-weights as one (K, M) array per level, padded with -inf."""
        return [level.sum_log_weights for level in self.levels]

    def per_sum_node(self, arrays: list[np.ndarray]) -> dict[int, np.ndarray]:
        """Unpadded rows of per-level sum arrays, keyed by sum node id."""
        return {int(i): a[row, :n]
                for level, a in zip(self.levels, arrays)
                for row, (i, n) in enumerate(zip(level.sum_ids,
                                                 level.sum_child_counts))}

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

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Log values of every node on a batch.

        X has shape (B, d); NaN entries mark marginalized variables.  Returns
        V of shape (n_nodes + 1, B); the final row is the sentinel.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ValueError(f"expected shape (batch, {self.d}), got {X.shape}")
        B = X.shape[0]
        V = np.empty((self.n_nodes + 1, B))
        V[self.sentinel] = 0.0

        if self.gaussian_ids.size:
            Xg = X[:, self.gaussian_vars].T
            var = self.gaussian_variance[:, None]
            z2 = (Xg - self.gaussian_mean[:, None]) ** 2 / var
            vals = -0.5 * (z2 + np.log(var) + LOG_2PI)
            V[self.gaussian_ids] = np.where(np.isnan(Xg), 0.0, vals)
        if self.bernoulli_ids.size:
            Xb = X[:, self.bernoulli_vars].T
            p = self.bernoulli_p[:, None]
            with np.errstate(divide="ignore"):
                lp, l1p = np.log(p), np.log1p(-p)
            with np.errstate(invalid="ignore"):
                t1 = np.where(Xb == 0.0, 0.0, Xb * lp)
                t2 = np.where(Xb == 1.0, 0.0, (1.0 - Xb) * l1p)
            V[self.bernoulli_ids] = np.where(np.isnan(Xb), 0.0, t1 + t2)
        if self.categorical_ids.size:
            Xc = X[:, self.categorical_vars].T
            hi = (self.categorical_sizes - 1)[:, None]
            idx = np.clip(np.round(np.nan_to_num(Xc)), 0, hi).astype(np.int64)
            rows = np.arange(self.categorical_ids.size)[:, None]
            vals = self.categorical_log_probs[rows, idx]
            V[self.categorical_ids] = np.where(np.isnan(Xc), 0.0, vals)

        for level in self.levels:
            if level.prod_ids.size:
                V[level.prod_ids] = V[level.prod_children].sum(axis=1)
            if level.sum_ids.size:
                a = V[level.sum_children] + level.sum_log_weights[:, :, None]
                V[level.sum_ids] = _logsumexp_mid(a)
        return V

    def backward(self, V: np.ndarray, X: np.ndarray,
                 seeds: dict[int, np.ndarray],
                 want_input: bool = True,
                 want_params: bool = False) -> BackwardResult:
        """Reverse pass from seeded node adjoints.

        ``seeds`` maps node id to a (B,)-vector of adjoints with respect to
        that node's log value.  Subtrees whose log value is -inf propagate a
        zero adjoint (the dead-branch convention).  Input gradients of
        marginalized coordinates and of categorical leaves are zero.
        """
        X = np.asarray(X, dtype=np.float64)
        B = V.shape[1]
        A = np.zeros((self.n_nodes + 1, B))
        for node_id, vec in seeds.items():
            A[node_id] += vec

        sum_w_grads = ([np.zeros_like(w) for w in self.sum_log_weights]
                       if want_params else None)
        for li, level in reversed(list(enumerate(self.levels))):
            if level.sum_ids.size:
                ids = level.sum_ids
                ratio = (level.sum_log_weights[:, :, None]
                         + V[level.sum_children] - V[ids][:, None, :])
                with np.errstate(invalid="ignore"):
                    W = np.exp(ratio)
                W = np.nan_to_num(W, nan=0.0, posinf=0.0)
                C = W * A[ids][:, None, :]
                A += (level.sum_scatter @ C.reshape(-1, B))
                if want_params:
                    sum_w_grads[li] = C.sum(axis=2)
            if level.prod_ids.size:
                ids = level.prod_ids
                M = level.prod_children.shape[1]
                C = np.broadcast_to(A[ids][:, None, :], (ids.size, M, B))
                A += (level.prod_scatter @ C.reshape(-1, B))

        result = BackwardResult(adjoints=A, sum_log_weight_grads=sum_w_grads)
        if want_input:
            gx = np.zeros((self.d, B))
            if self.gaussian_ids.size:
                Xg = X[:, self.gaussian_vars].T
                partial = -(Xg - self.gaussian_mean[:, None]) / self.gaussian_variance[:, None]
                contrib = A[self.gaussian_ids] * np.where(np.isnan(Xg), 0.0, partial)
                gx += self._gauss_input_scatter @ contrib
            if self.bernoulli_ids.size:
                Xb = X[:, self.bernoulli_vars].T
                p = self.bernoulli_p
                with np.errstate(divide="ignore"):
                    logit = (np.log(p) - np.log1p(-p))[:, None]
                contrib = A[self.bernoulli_ids] * np.where(np.isnan(Xb), 0.0, logit)
                gx += self._bern_input_scatter @ contrib
            result.input_grads = gx.T
        if want_params:
            # Leaf parameter gradients; empty arrays when a family is absent.
            Xg = X[:, self.gaussian_vars].T
            mask = ~np.isnan(Xg)
            diff = np.where(mask, Xg - self.gaussian_mean[:, None], 0.0)
            var = self.gaussian_variance[:, None]
            Ag = A[self.gaussian_ids]
            result.gaussian_mean_grads = np.where(
                mask, Ag * diff / var, 0.0).sum(axis=1)
            result.gaussian_variance_grads = np.where(
                mask, Ag * (diff ** 2 / var - 1.0) / (2.0 * var), 0.0).sum(axis=1)
            Xb = X[:, self.bernoulli_vars].T
            mask = ~np.isnan(Xb)
            p = self.bernoulli_p[:, None]
            Ab = A[self.bernoulli_ids]
            safe = np.where(mask, Xb, 0.0)
            result.bernoulli_p_grads = np.where(
                mask, Ab * (safe / p - (1.0 - safe) / (1.0 - p)), 0.0).sum(axis=1)
        return result


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
