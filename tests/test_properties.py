"""Property tests of the exact elimination and of the averaging identity.

Every result of rref, kernel_basis and solve_rational is compared with a
plain Gauss-Jordan elimination over Fraction written out below, which
shares no code with the library.
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
from fmlattice.lattice import Matrix, kernel_basis, rank, rref, solve_rational

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
def matrices(draw, rational=False, max_rows=8, max_cols=12):
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
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
