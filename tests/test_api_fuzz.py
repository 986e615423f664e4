"""Fuzz of the public API: no call of an exported callable ends in any
exception other than TypeError or ValueError (and its subclasses
DimensionError, InvariantError, DefsError and DefsParseError).

Every callable that fmlattice/__init__.py exports is called with as many
positional arguments as it takes, now and then one fewer or one more,
drawn from a pool of catalog surfaces, covers, vectors, actions and
isometries, matrices, ints, a Fraction, a float, a bool, None, strings,
tuples and a random.Random.  The strings hold numbers outside the
definitions form, but small ones ('1e3', '0.5'), so a reader that handed
them to Fraction() answers quickly rather than hanging.  The examples are
derandomized, so every run replays the same ones, each within a deadline.
"""

import inspect
import random
from datetime import timedelta
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

import fmlattice
from fmlattice import GcdCertificate, Matrix, builtin_catalog, identity_isometry

CATALOG = builtin_catalog()
POOL = [
    *[CATALOG.surfaces[name] for name in ("k3_toy", "enriques_toy", "bielliptic_2")],
    *[CATALOG.covers[name] for name in ("enriques_cover", "bielliptic_cover_2")],
    *[CATALOG.vectors[name] for name in ("point", "ideal_point")],
    *[CATALOG.vectors[name].chern for name in ("point", "ideal_point", "poincare")],
    *CATALOG.actions.values(),
    identity_isometry(CATALOG.surfaces["k3_toy"]),
    CATALOG,
    GcdCertificate.from_values([("O", 1)]),
    Matrix([[1]]), Matrix([[0, 1], [1, 0]]), Matrix.identity(3), Matrix([[2, 1], [1, 2]]),
    0, 1, 2, 3, -1, Fraction(1, 2), 0.5, True, None,
    "1e3", "0.5", "1/2", "2", "", "k3_toy", "ex3.5",
    (), (1,), (1, 0), (1, 0, 0), (("O", 1),), [[1]], [[1, 0], [0, 1]],
    random.Random(0),
]
EXPORTED = sorted(name for name in dir(fmlattice) if not name.startswith("_")
                  and callable(getattr(fmlattice, name)))


def arity(fn) -> int:
    """The number of positional parameters of fn (of its constructor for a class)."""
    try:
        params = inspect.signature(fn).parameters.values()
    except ValueError:  # no signature to read
        return 1
    return sum(p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD) for p in params)


@st.composite
def arguments(draw, fn):
    n = max(0, arity(fn) + draw(st.sampled_from([0, 0, 0, 0, -1, 1])))
    return [draw(st.sampled_from(POOL)) for _ in range(n)]


def test_the_fuzz_sees_the_whole_api():
    assert len(EXPORTED) >= 30
    assert {"random_rep", "tensor_twist", "GActionLattice", "LatticeIsometry"} <= set(EXPORTED)


@pytest.mark.parametrize("name", EXPORTED)
def test_an_exported_callable_raises_only_type_and_value_errors(name):
    fn = getattr(fmlattice, name)

    @settings(max_examples=100, derandomize=True, deadline=timedelta(seconds=5),
              suppress_health_check=[HealthCheck.too_slow])
    @given(arguments(fn))
    def call(args):
        try:
            fn(*args)
        except (TypeError, ValueError):
            pass

    call()
