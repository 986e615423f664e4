"""Property tests of the exact elimination, of the averaging identity and
of the pairings on the extended lattice.

Every result of rref, kernel_basis, solve_rational, det and inverse is
compared with a plain Gauss-Jordan elimination over Fraction written out
below, which shares no code with the library.
"""

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from fmlattice.averaging import (
    descend_invariant,
    difference_operator,
    norm_operator,
    random_rep,
    verify_ker_im,
)
import fmlattice
from fmlattice import covers
from fmlattice.catalog import builtin_catalog
from fmlattice.covers import chi_adjunction_check
from fmlattice.lattice import Matrix, det, inverse, kernel_basis, rank, rref, solve_rational
from fmlattice.surfaces import (
    ChernCharacter,
    ExtendedVector,
    MukaiVector,
    euler_pairing,
    mukai_pairing,
    mukai_vector,
)

SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def reference_rref(rows):
    """Gauss-Jordan over Fraction: (reduced rows, pivot columns)."""
    a = [[Fraction(x) for x in row] for row in rows]
    nrows, ncols = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][c]
        a[r] = [x / p for x in a[r]]
        for i in range(nrows):
            f = a[i][c]
            if i != r and f != 0:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def reference_det(rows):
    """Product of the pivots of Gauss elimination over Fraction."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    result = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            result = -result
        result *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return result


def reference_kernel(rows):
    a, pivots = reference_rref(rows)
    ncols = len(rows[0])
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -a[i][f]
        basis.append(tuple(v))
    return basis


def reference_solve(rows, b):
    a, pivots = reference_rref([list(row) + [bi] for row, bi in zip(rows, b)])
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        x[p] = a[i][ncols]
    return tuple(x)


def normalised(values):
    """Entries are ints exactly when they are whole numbers."""
    return all(isinstance(x, int) if Fraction(x).denominator == 1 else isinstance(x, Fraction)
               for x in values)


@st.composite
def matrices(draw, rational=False, max_rows=8, max_cols=12, square=False):
    nrows = draw(st.integers(1, max_rows))
    ncols = nrows if square else draw(st.integers(1, max_cols))
    entry = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10**6, 10**6))
    if rational:
        entry = st.builds(Fraction, entry, st.integers(1, 12))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    # rank deficiency: some rows become combinations of two earlier ones
    for i in draw(st.sets(st.integers(0, nrows - 1))):
        if i >= 1:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            c, d = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows[i] = [c * x + d * y for x, y in zip(rows[j], rows[k])]
    for i in draw(st.sets(st.integers(0, nrows - 1))):
        rows[i] = [0] * ncols
    for j in draw(st.sets(st.integers(0, ncols - 1))):
        for row in rows:
            row[j] = 0
    return rows


def check_rref(rows):
    reduced, pivots = rref(Matrix(rows))
    expected, expected_pivots = reference_rref(rows)
    assert list(pivots) == expected_pivots
    assert [list(row) for row in reduced.entries] == expected
    flat = [x for row in reduced.entries for x in row]
    assert normalised(flat)
    assert reduced.is_integral == all(isinstance(x, int) for x in flat)


@SETTINGS
@given(matrices())
def test_rref_of_integer_matrices_matches_reference(rows):
    check_rref(rows)


@SETTINGS
@given(matrices(rational=True))
def test_rref_of_rational_matrices_matches_reference(rows):
    check_rref(rows)


@SETTINGS
@given(st.booleans().flatmap(lambda rational: matrices(rational=rational)))
def test_kernel_basis_matches_reference(rows):
    basis = kernel_basis(Matrix(rows))
    assert basis == reference_kernel(rows)
    assert all(normalised(v) for v in basis)


@SETTINGS
@given(st.booleans().flatmap(lambda rational: matrices(rational=rational)), st.data())
def test_solve_rational_matches_reference(rows, data):
    m = Matrix(rows)
    if data.draw(st.booleans()):
        # a consistent right-hand side
        x = data.draw(st.lists(st.integers(-5, 5), min_size=m.ncols, max_size=m.ncols))
        b = m.apply(x)
    else:
        b = data.draw(st.lists(st.integers(-9, 9), min_size=m.nrows, max_size=m.nrows))
    x = solve_rational(m, b)
    assert x == reference_solve(rows, b)
    if x is not None:
        assert normalised(x)


@SETTINGS
@given(st.booleans().flatmap(lambda rational: matrices(rational=rational, square=True)))
def test_det_and_inverse_match_reference(rows):
    m = Matrix(rows)
    d = det(m)
    assert d == reference_det(rows)
    assert normalised([d])
    n = m.nrows
    reduced, pivots = reference_rref([list(row) + [int(i == j) for j in range(n)]
                                      for i, row in enumerate(rows)])
    if pivots[-1] != n - 1:
        assert d == 0
        with pytest.raises(ValueError, match="matrix is singular"):
            inverse(m)
    else:
        inv = inverse(m)
        assert [list(row) for row in inv.entries] == [row[n:] for row in reduced]
        flat = [x for row in inv.entries for x in row]
        assert normalised(flat)
        assert inv.is_integral == all(isinstance(x, int) for x in flat)


reps = st.integers(0, 2**32).map(lambda seed: random_rep(random.Random(seed), max_order=12,
                                                         max_dim=10))


def in_span(vectors, v):
    return reference_solve([list(r) for r in zip(*vectors)], v) is not None


@SETTINGS
@given(reps)
def test_dim_ker_norm_is_dim_minus_rank(rep):
    report = verify_ker_im(rep)
    n_op = norm_operator(rep)
    assert report.dim_ker_norm == rep.dim - len(reference_rref(n_op.entries)[1])
    assert report.dim_ker_norm == rep.dim - rank(n_op)
    assert report.holds


@SETTINGS
@given(reps, st.data())
def test_descend_invariant_on_orbit_spans(rep, data):
    s = tuple(data.draw(st.lists(st.integers(-4, 4), min_size=rep.dim, max_size=rep.dim)))
    b_op = difference_operator(rep)
    span, v = [], b_op.apply(s)
    for _ in range(rep.order):
        span.append(v)
        v = rep.gen.apply(v)
    t = descend_invariant(rep, span, s)
    assert b_op.apply(t) == (0,) * rep.dim
    assert normalised(t)
    assert in_span(span, tuple(a - b for a, b in zip(s, t)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(reps, st.data())
def test_not_stable_is_reported_before_b_s_outside(rep, data):
    dim = rep.dim
    vec = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).map(tuple)
    v, s = data.draw(vec), data.draw(vec)
    bs = difference_operator(rep).apply(s)
    assume(not in_span([v], rep.gen.apply(v)))
    assume(not in_span([v], bs))
    with pytest.raises(ValueError, match="not stable"):
        descend_invariant(rep, [v], s)


CATALOG = builtin_catalog()


@st.composite
def characters(draw, surface):
    """A valid Chern character on surface: 2 ch2 + c^2 even."""
    r = draw(st.integers(-6, 6))
    c = tuple(draw(st.lists(st.integers(-6, 6), min_size=surface.dim, max_size=surface.dim)))
    cc = surface.num.pair(c, c)
    return surface.character(r, c, draw(st.integers(-6, 6)) + Fraction(cc % 2, 2))


surfaces = st.sampled_from(sorted(CATALOG.surfaces.items())).map(lambda item: item[1])
covers_of_catalog = st.sampled_from(sorted(CATALOG.covers.items())).map(lambda item: item[1])


@SETTINGS
@given(surfaces.flatmap(lambda s: st.tuples(st.just(s), characters(s), characters(s))))
def test_mukai_pairing_is_minus_euler_pairing(case):
    surface, e, f = case
    v, w = mukai_vector(surface, e), mukai_vector(surface, f)
    assert mukai_pairing(surface, v, w) == -euler_pairing(surface, e, f)


@SETTINGS
@given(covers_of_catalog.flatmap(
    lambda t: st.tuples(st.just(t), characters(t.base), characters(t.cover))))
def test_chi_adjunction_holds_on_every_builtin_cover(case):
    t, f, e = case
    lhs, rhs, equal = chi_adjunction_check(t, f, e)
    assert equal and lhs == rhs


@SETTINGS
@given(surfaces.flatmap(characters))
def test_coords_round_trip(e):
    assert ExtendedVector.from_coords(e.coords()) == e
    assert e.coords() == (e.r,) + e.c + (e.ch2,)


def test_one_class_object_for_every_role():
    assert ChernCharacter is MukaiVector is ExtendedVector
    assert covers.ExtendedVector is fmlattice.ExtendedVector is ExtendedVector
