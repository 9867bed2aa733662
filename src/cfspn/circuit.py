"""Circuit representation, validation, serialization and log-space arithmetic.

A circuit is a DAG of sum, product and univariate leaf nodes held in flat
arrays, with one root per class plus a class prior.  Node ids are
topological: children come before parents, so one bottom-up pass evaluates
the whole DAG.  Node ``i`` has kind ``KINDS[kind[i]]`` and, if it is a leaf,
the variable ``variable[i]`` (-1 for sums and products).  Its children are
``ids[ptr[i]:ptr[i + 1]]`` (compressed sparse rows), and ``log_weights``
holds one log weight per child edge, aligned with ``ids`` (0 on product
edges).  Leaf parameters are one array per family, listing that family's
leaves in id order: ``mean`` and ``variance`` for Gaussians, ``p`` for
Bernoullis, and for categoricals the probabilities of leaf k as
``probs[probs_ptr[k]:probs_ptr[k + 1]]``.

All evaluation happens in log space; linear-space probabilities only appear
at API boundaries.
"""

from __future__ import annotations

import base64
import itertools
import json
import math
import operator
from dataclasses import InitVar, dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

#: Version written by :func:`save`, which stores each array as the base64 of
#: its little-endian int64 or float64 bytes.  :func:`load` also reads
#: version 2, which listed the same arrays as JSON numbers, and version 1,
#: which listed one JSON object per node.
FORMAT_VERSION = 3

KINDS = ("gaussian", "bernoulli", "categorical", "sum", "product")
GAUSSIAN, BERNOULLI, CATEGORICAL, SUM, PRODUCT = range(len(KINDS))

#: Normalization tolerance for weight vectors, leaf simplices and priors.
NORMALIZATION_TOL = 1e-9

#: log of the smallest positive normal float64; densities below this underflow.
LOG_TINY = math.log(np.finfo(np.float64).tiny)

LOG_2PI = math.log(2.0 * math.pi)


def logsumexp(a, axis: int = -1, keepdims: bool = False) -> np.ndarray:
    """log(sum(exp(a))) along one axis; -inf if no term is above -inf.

    The largest terms leave the sum and return through log1p, the arithmetic
    of ``scipy.special.logsumexp``, whose results this matches bit for bit.
    """
    a = np.asarray(a, dtype=np.float64)
    top = np.max(a, axis=axis, keepdims=True, initial=-np.inf)
    is_top = a == top
    count = is_top.sum(axis=axis, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        rest = np.exp(np.where(is_top, -np.inf, a - top)).sum(axis=axis, keepdims=True)
        out = np.log1p(rest / count) + np.log(count) + top
    out = np.where(np.isfinite(top), out, top)
    return out if keepdims else np.squeeze(out, axis=axis)


def _points(x, num_variables: int, missing: bool = True,
            what: str = "input") -> tuple[np.ndarray, bool]:
    """x, one point (d,) or a batch (B, d), as a (B, d) float64 batch, and
    whether it was one point.  NaN marks a marginalized variable, refused
    unless ``missing``; +-inf is always refused."""
    X = np.asarray(x, dtype=np.float64)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != num_variables:
        raise ValueError(f"{what} shape {np.shape(x)} does not match "
                         f"{num_variables} variables")
    if not np.isfinite(X).all():
        if np.isinf(X).any():
            raise ValueError(f"{what} contains infinite values")
        if not missing:
            raise ValueError(f"{what} has missing (NaN) values; it must be fully observed")
    return X, single


def _classes(y, num_classes: int, what: str = "class", rows: int | None = None) -> np.ndarray:
    """y, one class index or a vector of them, as int64 in [0, num_classes);
    given ``rows``, as (rows,), one index standing for every row.  A bool or
    a float, even an integral one, is refused, as :func:`load` casts nothing."""
    Y = np.asarray(y)
    # NumPy casts the bools of a list that also holds integers to integers.
    dtype = (np.dtype(bool) if isinstance(y, (list, tuple)) and bool in map(type, y)
             else Y.dtype)
    if Y.size and dtype.kind not in "iu":
        raise ValueError(f"{what} {Y.item()!r} is not an integer" if Y.ndim == 0
                         else f"{what} values must be integers, not {dtype}")
    if Y.ndim > 1 or (rows is not None and Y.ndim and len(Y) != rows):
        raise ValueError(f"{what} values of shape {Y.shape} " + (
            "are not a vector" if Y.ndim > 1 else f"do not match {rows} rows"))
    # .item(): a reduction of a 0-d array takes microseconds
    low, high = (Y.item(),) * 2 if Y.ndim == 0 else (Y.min(initial=0), Y.max(initial=0))
    if not (0 <= low and high < num_classes):
        bad = Y[(Y < 0) | (Y >= num_classes)].flat[0]
        raise ValueError(f"{what} {bad} out of range [0, {num_classes})")
    Y = Y.astype(np.int64, copy=False)
    return Y if rows is None or Y.ndim else np.full(rows, Y)


def _integer(value, what: str, minimum: int) -> int:
    """value, a Python or NumPy integer of at least ``minimum``, as an int.
    A bool, a float (even an integral one) and a string are refused."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < minimum):
        raise ValueError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def _number(value, what: str, minimum: float, *, strict: bool = False,
            below: float = math.inf) -> float:
    """value, a Python or NumPy real number, finite, at least ``minimum``
    (above it, if ``strict``) and under ``below``, as a float.  A bool, a
    string, a NaN and an infinity are refused."""
    try:
        number = (float(value) if isinstance(value, (int, float, np.integer, np.floating))
                  and not isinstance(value, bool) else math.nan)
    except OverflowError:               # an int past the float range
        number = math.nan
    # NaN fails both comparisons, and an infinity one of them.
    if not ((number > minimum if strict else number >= minimum) and number < below):
        bounds = f"{'>' if strict else '>='} {minimum:g}" + (
            f" and < {below:g}" if below < math.inf else "")
        raise ValueError(f"{what} must be a finite number {bounds}, got {value!r}")
    return number


class CircuitFormatError(ValueError):
    """A model document could not be parsed into a valid circuit."""


#: Fields of :class:`Circuit` that hold integers; the other arrays hold float64.
_INTEGER_FIELDS = ("kind", "variable", "ptr", "ids", "class_roots", "probs_ptr")

#: Fields of :class:`Structure`, which a :class:`Circuit` shares with its structure.
_STRUCTURE_FIELDS = ("kind", "variable", "ptr", "ids", "class_roots", "probs_ptr",
                     "num_variables")


def uniform_log_weights(n: int) -> np.ndarray:
    return np.full(n, -math.log(n), dtype=np.float64)


def _frozen(name: str, values) -> np.ndarray:
    """A read-only vector; one that is already read-only and owns its data is shared."""
    dtype = np.int64 if name in _INTEGER_FIELDS else np.float64
    if not (isinstance(values, np.ndarray) and values.dtype == dtype
            and values.flags.owndata and not values.flags.writeable):
        values = np.array(values, dtype=dtype)
        values.flags.writeable = False
    if values.ndim != 1:
        raise ValueError(f"invalid circuit: [structure] node None: {name} "
                         "is not a vector")
    return values


def _freeze(obj, names) -> None:
    """Make the named array fields of a frozen dataclass read-only vectors."""
    for name in names:
        object.__setattr__(obj, name, _frozen(name, getattr(obj, name)))


@dataclass(frozen=True, eq=False)
class Structure:
    """The nodes, edges, leaf variables and class roots of a circuit: every
    field but its parameters, laid out as the module docstring gives.

    A structure is checked once, when it is made: the constructor (and so
    copies and unpickling) raises ``ValueError`` listing every violation
    :func:`validate` finds in the layout, references and order, leaf
    variables, scopes, smoothness, decomposability and class-root
    coverage.  Its arrays are read-only, so a structure that exists is
    valid for life, and what is derived from it alone is kept on it:
    :attr:`scopes` and the engine's lowering.  Circuits made on one
    structure share all of it.
    """

    kind: np.ndarray
    variable: np.ndarray
    ptr: np.ndarray
    ids: np.ndarray
    class_roots: tuple[int, ...]
    probs_ptr: np.ndarray
    num_variables: int

    def __post_init__(self):
        _freeze(self, ("kind", "variable", "ptr", "ids", "probs_ptr"))
        # Python ints: the engine looks seed ids up in it on every backward pass.
        object.__setattr__(self, "class_roots",
                           tuple(map(operator.index, self.class_roots)))
        validate(self)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    @cached_property
    def scopes(self) -> np.ndarray:
        """Variable scope of every node as a bitset, (nodes, ceil(d / 64)) uint64:
        variable v is in the scope of node i when bit v % 64 of word v // 64 is set."""
        return _scopes(self)

    def circuit(self, **parameters) -> Circuit:
        """A circuit of this structure with these parameters, which alone are checked."""
        return Circuit(**{name: getattr(self, name) for name in _STRUCTURE_FIELDS},
                       **parameters, structure=self)


@dataclass(frozen=True, eq=False)
class Circuit:
    """Flat-array circuit with per-class roots; the module docstring gives the layout.

    A circuit is a :class:`Structure`, its ``structure``, plus one set of
    parameters: ``log_weights``, ``log_prior`` and the leaf parameters.
    Circuits are immutable: every array is read-only, so a compiled form
    cached per instance can never go stale.  ``engine.compile_circuit``
    keeps it in the instance dict, so it lives exactly as long as the
    circuit; copies start without one.  To change a parameter, build a
    new circuit, e.g. ``dataclasses.replace(c, mean=new_means)``; arrays left
    as they are are shared, and so is the structure.

    Circuits are valid by construction, and each check runs once per
    object it covers.  Made from keywords, and so by :func:`load`, copies
    and unpickling, a circuit makes a new structure, checked as a whole;
    made on an existing structure (``Structure.circuit``, ``replace`` of
    parameters alone), it checks only its parameters: leaf domains and the
    normalization of weights and prior.  Either way the constructor raises
    ``ValueError`` listing every violation it finds.
    """

    kind: np.ndarray
    variable: np.ndarray
    ptr: np.ndarray
    ids: np.ndarray
    log_weights: np.ndarray
    class_roots: tuple[int, ...]
    log_prior: np.ndarray
    num_variables: int
    mean: np.ndarray = ()
    variance: np.ndarray = ()
    p: np.ndarray = ()
    probs_ptr: np.ndarray = (0,)
    probs: np.ndarray = ()
    # Not a field.  ``dataclasses.replace`` reads an init-only variable from
    # the instance, so a replaced circuit is offered its source's structure,
    # and takes it if every structure field passed is that structure's own.
    structure: InitVar[Structure | None] = None

    def __post_init__(self, structure: Structure | None):
        _freeze(self, ("log_weights", "log_prior", "mean", "variance", "p", "probs"))
        if structure is None or any(getattr(self, name) is not getattr(structure, name)
                                    for name in _STRUCTURE_FIELDS):
            _freeze(self, ("kind", "variable", "ptr", "ids", "probs_ptr"))
            try:
                structure = Structure(**{name: getattr(self, name)
                                         for name in _STRUCTURE_FIELDS})
            except ValueError:
                # One message lists the parameters' violations too, in check order.
                object.__setattr__(self, "class_roots",
                                   tuple(map(operator.index, self.class_roots)))
                _raise(_violations(self))
                raise
            object.__setattr__(self, "class_roots", structure.class_roots)
        object.__setattr__(self, "structure", structure)
        validate(self)

    def __reduce__(self):
        # Copies and unpickled circuits go through the constructor: read-only, valid.
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    @property
    def nodes(self) -> range:
        """Node ids; ``len(circuit.nodes)`` is the node count."""
        return range(self.kind.size)

    @property
    def num_classes(self) -> int:
        return len(self.class_roots)

    @property
    def scopes(self) -> np.ndarray:
        """The structure's :attr:`Structure.scopes`."""
        return self.structure.scopes


def _scopes(s: Structure) -> np.ndarray:
    """:attr:`Structure.scopes` of a structure's arrays."""
    words = -(-s.num_variables // 64)
    S = np.zeros((s.kind.size, words), dtype=np.uint64)
    leaves = np.flatnonzero(s.kind < SUM)
    v = s.variable[leaves]
    S[leaves, v // 64] = np.left_shift(np.uint64(1), (v % 64).astype(np.uint64))
    internal = np.flatnonzero(s.kind >= SUM)
    return _bottom_up(np.bitwise_or, S, _by_arity(s.ptr, s.ids, internal))


def _by_arity(ptr: np.ndarray, ids: np.ndarray, nodes: np.ndarray) -> list:
    """(nodes, (nodes, arity) children) of each arity among the nodes."""
    arity = ptr[nodes + 1] - ptr[nodes]
    return [(at, ids[ptr[at][:, None] + np.arange(k)])
            for k in np.unique(arity) for at in [nodes[arity == k]]]


def _bottom_up(ufunc, values: np.ndarray, rows: list, add=None) -> np.ndarray:
    """For each (nodes, children) of ``rows``, set the nodes' rows of ``values``
    to ufunc over their children's rows, plus ``add`` at the nodes, sweeping
    up from the other rows until nothing changes; returns ``values``."""
    changed = True
    while changed:
        changed = False
        for nodes, children in rows:
            new = ufunc.reduce(values[children], axis=1)
            if add is not None:
                new += add[nodes]
            if not np.array_equal(new, values[nodes]):
                values[nodes] = new
                changed = True
    return values


def _node_arrays(nodes: list[dict]) -> dict[str, list]:
    """Circuit arrays from version-1 node objects: ``kind`` plus that kind's fields."""
    children = [o.get("children", []) for o in nodes]
    family = {k: [o for o in nodes if o["kind"] == k] for k in KINDS[:SUM]}
    return {
        "kind": [KINDS.index(o["kind"]) if o["kind"] in KINDS else -1 for o in nodes],
        "variable": [o.get("variable", -1) for o in nodes],
        "ptr": [0, *itertools.accumulate(map(len, children))],
        "ids": [c for cs in children for c in cs],
        "log_weights": [w for o, cs in zip(nodes, children)
                        for w in o.get("log_weights", [0.0] * len(cs))],
        "mean": [o["mean"] for o in family["gaussian"]],
        "variance": [o["variance"] for o in family["gaussian"]],
        "p": [o["p"] for o in family["bernoulli"]],
        "probs_ptr": [0, *itertools.accumulate(len(o["probabilities"])
                                               for o in family["categorical"])],
        "probs": [q for o in family["categorical"] for q in o["probabilities"]],
    }


def validate(item: Structure | Circuit) -> None:
    """Check a structure, or a circuit's parameters; raise on any violation.

    A :class:`Structure` is checked for its array layout, node references
    and topological order, leaf variables, smoothness of sum nodes,
    decomposability of product nodes and class-root scopes.  A
    :class:`Circuit`, whose structure was checked when it was made, is
    checked for the lengths of its parameter arrays, leaf parameter domains
    and weight and prior normalization.  One ``ValueError`` lists every
    violation found, as ``[kind] node i: message; ...``.  The constructors
    call this, so every structure and circuit that exists is valid.
    """
    of_structure = isinstance(item, Structure)
    _raise(_violations(item, structure=of_structure, parameters=not of_structure))


def _raise(violations: list) -> None:
    if violations:
        raise ValueError("invalid circuit: " + "; ".join(
            f"[{kind}] node {node}: {message}" for node, kind, message in violations))


def _per_node(ufunc, values: np.ndarray, parent: np.ndarray):
    """(node, ufunc over its values) for each run of equal ``parent`` entries."""
    starts = np.flatnonzero(np.diff(parent, prepend=-1))
    return parent[starts], ufunc.reduceat(values, starts, axis=0)


def _layout_violations(c, structure: bool, parameters: bool) -> list:
    """Array lengths and CSR pointers; every other check relies on them."""
    n = c.kind.size
    known = (c.kind >= 0) & (c.kind < len(KINDS))
    out = [(i, "structure", f"unknown kind code {c.kind[i]}")
           for i in np.flatnonzero(~known)] if structure else []
    count = np.bincount(c.kind[known], minlength=len(KINDS))
    sizes = {"variable": n, "ptr": n + 1, "log_weights": c.ids.size,
             "mean": count[GAUSSIAN], "variance": count[GAUSSIAN],
             "p": count[BERNOULLI], "probs_ptr": count[CATEGORICAL] + 1}
    out += [(None, "structure", f"{name} has {getattr(c, name).size} entries, "
                                f"expected {size}")
            for name, size in sizes.items()
            if (structure if name in _STRUCTURE_FIELDS else parameters)
            and getattr(c, name).size != size]
    for name, target in (("ptr", "ids"), ("probs_ptr", "probs")):
        ptr = getattr(c, name)
        # probs is a parameter: the end of probs_ptr is checked with the parameters.
        ends = parameters if target == "probs" else structure
        if ptr.size != sizes[name] or not (ends or structure):
            continue
        if ends and (ptr[0] != 0 or ptr[-1] != getattr(c, target).size):
            out.append((None, "structure", f"{name} runs from {ptr[0]} to {ptr[-1]}, "
                                           f"not from 0 to len({target}) = "
                                           f"{getattr(c, target).size}"))
        elif structure and ptr[0] != 0:
            out.append((None, "structure", f"{name} starts at {ptr[0]}, not at 0"))
        elif structure and np.any(np.diff(ptr) < 0):
            out.append((None, "structure", f"{name} decreases after entry "
                                           f"{np.argmax(np.diff(ptr) < 0)}"))
    return out


def _violations(c, structure: bool = True, parameters: bool = True) -> list:
    """(node or None, kind, message) of each violated invariant, by check, then
    node: the structure's, if ``structure``, and the parameters', if
    ``parameters``; these alone need a valid structure."""
    n, d = c.kind.size, c.num_variables
    if structure and n == 0:
        return [(None, "structure", "circuit has no nodes")]
    out = [(None, "structure", f"num_variables must be >= 1, got {d}")
           ] if structure and not d >= 1 else []
    layout = _layout_violations(c, structure, parameters)
    if layout:
        return out + layout

    # Child references must resolve and respect children-before-parents order.
    arity = np.diff(c.ptr)
    internal = c.kind >= SUM
    on_sum = np.repeat(c.kind == SUM, arity)
    refs = []
    if structure:
        parent = np.repeat(np.arange(n), arity)
        unresolved = (c.ids < 0) | (c.ids >= n)
        refs += [(i, "structure", f"{KINDS[c.kind[i]]} node has no children")
                 for i in np.flatnonzero(internal & (arity == 0))]
        refs += [(i, "structure", f"{KINDS[c.kind[i]]} leaf has children")
                 for i in np.flatnonzero(~internal & (arity > 0))]
        refs += [(parent[e], "node-ref", f"child id {c.ids[e]} out of range")
                 for e in np.flatnonzero(unresolved)]
        refs += [(parent[e], "topological-order",
                  f"child {c.ids[e]} does not precede parent {parent[e]}")
                 for e in np.flatnonzero(~unresolved & (c.ids >= parent))]
    out += refs

    # Leaf variables and parameter domains.
    v = c.variable
    stray = ~internal & ((v < 0) | (v >= d))
    if structure:
        out += [(i, "leaf-domain", f"variable {v[i]} out of range")
                for i in np.flatnonzero(stray)]
        out += [(i, "structure", f"{KINDS[c.kind[i]]} node has variable {v[i]}")
                for i in np.flatnonzero(internal & (v != -1))]
    gaussians, bernoullis, categoricals = (
        np.flatnonzero(c.kind == code) for code in (GAUSSIAN, BERNOULLI, CATEGORICAL))
    if parameters:
        out += [(gaussians[k], "leaf-domain",
                 f"variance {float(c.variance[k])} is not positive")
                for k in np.flatnonzero(~(c.variance > 0.0) | ~np.isfinite(c.variance))]
        out += [(gaussians[k], "leaf-domain", f"mean {float(c.mean[k])} is not finite")
                for k in np.flatnonzero(~np.isfinite(c.mean))]
        out += [(bernoullis[k], "leaf-domain", f"p {float(c.p[k])} outside [0, 1]")
                for k in np.flatnonzero(~((c.p >= 0.0) & (c.p <= 1.0)))]
    if structure:
        out += [(categoricals[k], "leaf-domain", "probabilities must be a non-empty vector")
                for k in np.flatnonzero(np.diff(c.probs_ptr) == 0)]
    if parameters:
        owner = np.repeat(np.arange(categoricals.size), np.diff(c.probs_ptr))
        filled, negative = _per_node(np.logical_or, c.probs < 0.0, owner)
        _, total = _per_node(np.add, c.probs, owner)
        out += [(categoricals[k], "leaf-domain", "probabilities are not a simplex")
                for k in filled[negative | ~(np.abs(total - 1.0) <= NORMALIZATION_TOL)]]

        # Sum-weight normalization; product edges carry no weight.
        lw = c.log_weights
        weighted = np.flatnonzero(~on_sum & (lw != 0.0))
        out += [(i, "weight-normalization", "product node has log weights")
                for i in np.unique(np.searchsorted(c.ptr, weighted, side="right") - 1)]
        sums = np.flatnonzero((c.kind == SUM) & (arity > 0))
        starts = np.cumsum(arity[sums]) - arity[sums]
        lw = lw[on_sum]
        broken = np.logical_or.reduceat(np.isnan(lw) | (lw == np.inf), starts)
        with np.errstate(over="ignore"):
            total = np.add.reduceat(np.exp(lw), starts)
        for k in np.flatnonzero(broken | (np.abs(total - 1.0) > NORMALIZATION_TOL)):
            out.append((sums[k], "weight-normalization",
                        "log weights contain nan or +inf" if broken[k]
                        else f"weights sum to {float(total[k])!r}"))

    if refs:
        # Scope-dependent checks need resolvable references.
        return out
    if structure:
        # Bitsets need in-range variables, and covering d variables takes d leaves.
        scopes = None if stray.any() or d > np.count_nonzero(~internal) else _scopes(c)
        if scopes is not None:
            edges = np.flatnonzero(on_sum)
            first = c.ids[c.ptr[parent[edges]]]
            differs = edges[np.any(scopes[c.ids[edges]] != scopes[first], axis=1)]
            for i, e in zip(*np.unique(parent[differs], return_index=True)):
                out.append((i, "smoothness", f"children {c.ids[c.ptr[i]]} and "
                                             f"{c.ids[differs[e]]} differ in scope"))
            edges = np.flatnonzero(c.kind[parent] == PRODUCT)
            child_scopes = scopes[c.ids[edges]]
            products, union = _per_node(np.bitwise_or, child_scopes, parent[edges])
            _, size = _per_node(np.add, np.bitwise_count(child_scopes).sum(axis=1),
                                parent[edges])
            for i in products[np.bitwise_count(union).sum(axis=1) != size]:
                seen = np.zeros_like(scopes[i])
                for child in c.ids[c.ptr[i]:c.ptr[i + 1]]:
                    if np.any(seen & scopes[child]):
                        out.append((i, "decomposability",
                                    f"child {child} overlaps the scope of a sibling"))
                        break
                    seen |= scopes[child]

        # Class roots.
        if not c.class_roots:
            out.append((None, "structure", "circuit has no class roots"))
        for y, r in enumerate(c.class_roots):
            if not (0 <= r < n):
                out.append((None, "node-ref", f"class root {y} id {r} out of range"))
            elif not stray.any() and (scopes is None
                                      or np.bitwise_count(scopes[r]).sum() != d):
                out.append((r, "scope", f"class root {y} does not cover all variables"))

    if parameters:
        prior, classes = c.log_prior, len(c.class_roots)
        if prior.shape != (classes,):
            out.append((None, "prior", f"log_prior length {prior.size} != "
                                       f"{classes} classes"))
        elif np.any(np.isnan(prior)) or np.any(prior == np.inf):
            out.append((None, "prior", "log_prior contains nan or +inf"))
        elif abs(np.exp(prior).sum() - 1.0) > NORMALIZATION_TOL:
            out.append((None, "prior", f"prior sums to {float(np.exp(prior).sum())!r}"))
    return out


def _dtype(name: str) -> str:
    """The little-endian dtype of a field's bytes in a version-3 document."""
    return "<i8" if name in _INTEGER_FIELDS else "<f8"


def save(circuit: Circuit, destination: str | Path) -> None:
    """Write a circuit as a versioned JSON document, format version 3.

    ``num_variables`` and ``class_roots`` are JSON integers; every other
    field is one base64 string (standard alphabet, padded) of its array's
    little-endian int64 (``kind``, ``variable``, ``ptr``, ``ids``,
    ``probs_ptr``) or float64 bytes.  No value passes through decimal text,
    so ``load(save(c))`` is bit-equal array by array, -0.0 and -inf
    included, and the same circuit always gives the same bytes.
    """
    head = {"format_version": FORMAT_VERSION, "num_variables": int(circuit.num_variables),
            "class_roots": list(circuit.class_roots)}
    with open(destination, "w", encoding="utf-8") as fh:
        # The document json.dumps would write, written around the base64
        # strings, which need no escaping, instead of copying them through it.
        fh.write(json.dumps(head)[:-1])
        for f in fields(circuit):
            if f.name not in head:
                fh.write(f', "{f.name}": "')
                fh.write(base64.b64encode(getattr(circuit, f.name).astype(
                    _dtype(f.name), copy=False)).decode("ascii"))
                fh.write('"')
        fh.write("}\n")


def _typed(doc: dict, name: str) -> list:
    """doc[name] if it is a list of integers (or of numbers, for a float array)."""
    values = doc[name]
    integral = name in _INTEGER_FIELDS
    if (not isinstance(values, list)
            or not set(map(type, values)) <= ({int} if integral else {int, float})):
        raise CircuitFormatError(
            f"{name} must be a list of {'integers' if integral else 'numbers'}")
    return values


def _decoded(doc: dict, name: str) -> np.ndarray:
    """doc[name], a base64 string of little-endian 8-byte values, as an array."""
    text = doc[name]
    if not isinstance(text, str):
        raise CircuitFormatError(f"{name} must be a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:           # binascii.Error, or a non-ASCII character
        raise CircuitFormatError(f"{name} is not valid base64: {exc}") from exc
    if len(raw) % 8:
        raise CircuitFormatError(f"{name} holds {len(raw)} bytes, "
                                 "not a whole number of 8-byte values")
    return np.frombuffer(raw, dtype=_dtype(name))


def load(source: str | Path) -> Circuit:
    """Load a circuit saved by :func:`save`, in format version 1, 2 or 3.

    Raises :class:`CircuitFormatError` on unknown versions, malformed
    documents (nothing is cast: a string or a fractional id is an error, and
    so is a version-3 field that is not base64 of whole 8-byte values) or
    circuits that fail validation after parsing.
    """
    try:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CircuitFormatError(f"not a JSON document: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CircuitFormatError(f"not a UTF-8 JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise CircuitFormatError("top level is not an object")
    version = doc.get("format_version")
    if type(version) is not int or version not in (1, 2, FORMAT_VERSION):
        raise CircuitFormatError(
            f"format_version {version!r} not supported (expected 1, 2 or {FORMAT_VERSION})")
    try:
        arrays = doc if version > 1 else {
            **_node_arrays(doc["nodes"]), "class_roots": doc["class_roots"],
            "log_prior": doc["log_prior"]}
        d = doc["num_variables"]
        if type(d) is not int:
            raise CircuitFormatError("num_variables must be an integer")
        read = _decoded if version == FORMAT_VERSION else _typed
        return Circuit(**{f.name: read(arrays, f.name) for f in fields(Circuit)
                          if f.name not in ("class_roots", "num_variables")},
                       class_roots=_typed(arrays, "class_roots"), num_variables=d)
    except CircuitFormatError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CircuitFormatError(f"malformed document: {exc}") from exc


def structural_equal(a: Circuit, b: Circuit) -> bool:
    """Equality of every array, with bit-exact parameter comparison."""
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in fields(Circuit))
