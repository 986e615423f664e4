"""Property tests of the exact products and elimination, of the averaging
identity, of the pairings on the extended lattice, of lifting isometries
and of the cyclic-action functions against loops over the stated order.

Every product, matrix-vector product and scalar multiple is compared with
a plain loop over Fraction, and every result of rref, kernel_basis,
solve_rational, det and inverse with a plain Gauss-Jordan elimination
over Fraction, both written out below and sharing no code with the
library.
"""

import random
import re
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from fmlattice.averaging import (
    CyclicRep,
    _companion,
    _cycle_matrix,
    _cyclotomic,
    _random_basis_pair,
    descend_invariant,
    difference_operator,
    norm_operator,
    random_rep,
    verify_ker_im,
)
import fmlattice
from fmlattice import covers
from fmlattice.catalog import builtin_catalog
from fmlattice.covers import chi_adjunction_check, validate_cover
from fmlattice.defsio import load_definitions
from fmlattice.descent import orbit_sum
from fmlattice.lattice import (
    BilinearForm,
    Matrix,
    block_diagonal,
    det,
    inverse,
    kernel_basis,
    rank,
    rref,
    solve_rational,
)
from fmlattice.surfaces import (
    ChernCharacter,
    ExtendedVector,
    InvariantError,
    MukaiVector,
    NumericalSurface,
    euler_pairing,
    mukai_pairing,
    mukai_vector,
)
from fmlattice.transport import (
    GActionLattice,
    LatticeIsometry,
    LiftFamily,
    check_equivariant,
    descend_isometry,
    identity_isometry,
    lift_isometry,
    minus_one,
    num_negation,
    tensor_twist,
)

SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def reference_product(a, b):
    """The triple loop over Fraction."""
    return [[sum([Fraction(x) * Fraction(y) for x, y in zip(row, col)], Fraction(0))
             for col in zip(*b)] for row in a]


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


# Entries beyond 2^64 and 2^200, and at those powers, exercise the width
# of the product's packed slots.
WIDE = st.sampled_from([2**64, 2**64 + 1, 2**200 - 1, 2**200, 3**127]).flatmap(
    lambda x: st.sampled_from([x, -x]))
PRODUCT_INTS = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-2**70, 2**70),
                         st.integers(-2**210, 2**210), WIDE)
PRODUCT_ENTRIES = {
    "int": PRODUCT_INTS,
    "fraction": st.builds(Fraction, PRODUCT_INTS, st.one_of(st.integers(1, 12), st.just(2**64 + 13))),
}
PRODUCT_ENTRIES["mixed"] = st.one_of(PRODUCT_ENTRIES["int"], PRODUCT_ENTRIES["fraction"])


@st.composite
def operand(draw, nrows, ncols):
    """Rows of int, Fraction or mixed entries, or of one magnitude with
    drawn signs, where product entries reach the bound k max|A| max|B|;
    some rows zero, or all of them."""
    kind = draw(st.sampled_from(sorted(PRODUCT_ENTRIES) + ["extreme"]))
    if kind == "extreme":
        magnitude = draw(st.one_of(st.integers(1, 9), WIDE.map(abs)))
        entry = st.sampled_from([magnitude, -magnitude])
    else:
        entry = PRODUCT_ENTRIES[kind]
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    zero_rows = range(nrows) if draw(st.integers(0, 9)) == 0 else draw(st.sets(st.integers(0, nrows - 1)))
    for i in zero_rows:
        rows[i] = [0] * ncols
    return rows


@st.composite
def product_operands(draw):
    """(A, B) with A n x k and B k x m; 1 x k and k x 1 shapes often."""
    n, k, m = draw(st.integers(1, 7)), draw(st.integers(1, 7)), draw(st.integers(1, 7))
    shape = draw(st.sampled_from(["any", "row", "column", "dot"]))
    n = 1 if shape in ("row", "dot") else n
    m = 1 if shape in ("column", "dot") else m
    return draw(operand(n, k)), draw(operand(k, m))


@SETTINGS
@given(product_operands())
def test_product_matches_reference_triple_loop(operands):
    a_rows, b_rows = operands
    product = Matrix(a_rows) @ Matrix(b_rows)
    assert [list(row) for row in product.entries] == reference_product(a_rows, b_rows)
    assert (product.nrows, product.ncols) == (len(a_rows), len(b_rows[0]))
    flat = [x for row in product.entries for x in row]
    assert normalised(flat)
    assert product.is_integral == all(type(x) is int for x in flat)


@SETTINGS
@given(product_operands())
def test_apply_matches_reference_loop(operands):
    a_rows, b_rows = operands
    a = Matrix(a_rows)
    expected = reference_product(a_rows, b_rows)
    for j, column in enumerate(zip(*b_rows)):
        image = a.apply(column)
        assert list(image) == [row[j] for row in expected]
        assert normalised(image)


# Scalars as scale accepts them: ints, Fractions, 'p/q' strings, and zero
# in each of those forms.
SCALARS = st.one_of(
    st.sampled_from([0, Fraction(0), "0", "0/7"]),
    PRODUCT_INTS,
    PRODUCT_ENTRIES["fraction"],
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-10**6, 10**6), st.integers(1, 10**6)),
)


@SETTINGS
@given(st.data(), SCALARS)
def test_scale_matches_reference(data, k):
    rows = data.draw(operand(data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))))
    scaled = Matrix(rows).scale(k)
    assert [list(row) for row in scaled.entries] == \
        [[Fraction(k) * Fraction(x) for x in row] for row in rows]
    flat = [x for row in scaled.entries for x in row]
    assert normalised(flat)
    assert scaled.is_integral == all(type(x) is int for x in flat)


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
def test_rank_matches_reference(rows):
    assert rank(Matrix(rows)) == len(reference_rref(rows)[1])


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


def scan_all_divisors_random_rep(rng, max_order, max_dim):
    """random_rep as it was before it bounded its divisor scan: it lists
    every divisor of the order and builds every cyclotomic polynomial."""
    order = rng.randint(1, max_order)
    dim = rng.randint(1, max_dim)
    divisors = [k for k in range(1, order + 1) if order % k == 0]
    blocks = []
    filled = 0
    while filled < dim:
        remaining = dim - filled
        options = [Matrix([[1]])]
        for k in divisors:
            if 1 < k <= remaining:
                options.append(_cycle_matrix(k))
            deg = len(_cyclotomic(k)) - 1
            if 1 < k and deg <= remaining:
                options.append(_companion(_cyclotomic(k)))
        block = rng.choice(options)
        blocks.append(block)
        filled += block.nrows
    gen = block_diagonal(blocks)
    basis, basis_inv = _random_basis_pair(rng, dim, unimodular=rng.random() < 0.75)
    gen = basis @ gen @ basis_inv
    return CyclicRep(order, dim, gen)


@SETTINGS
@given(st.integers(0, 2**32), st.integers(1, 400), st.integers(1, 12))
def test_random_rep_draws_as_the_full_divisor_scan(seed, max_order, max_dim):
    rng, old_rng = random.Random(seed), random.Random(seed)
    rep = random_rep(rng, max_order=max_order, max_dim=max_dim)
    assert rep == scan_all_divisors_random_rep(old_rng, max_order, max_dim)
    assert rng.getstate() == old_rng.getstate()


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


DATA = Path(__file__).resolve().parent / "data"


def _with_defs(catalog, name, allow_invalid=False):
    text = (DATA / name).read_text(encoding="utf-8")
    return catalog.extend(load_definitions(text, allow_invalid=allow_invalid,
                                           registry=catalog.registry()))


LIFT_CATALOG = _with_defs(_with_defs(CATALOG, "golden.defs", allow_invalid=True),
                          "enriques_k3_18.defs")
FAMILY_COVERS = ["enriques_k3_18_cover", "golden_split_cover"]
VALID_BUILTIN_COVERS = [name for name, t in sorted(CATALOG.covers.items())
                        if validate_cover(t).passed]


def isometry_word(surface, picks):
    """The product of line-bundle twists by basis divisors and their
    negatives, total negation and negation on Num, chosen by picks."""
    moves = [minus_one(surface), num_negation(surface)]
    for j in range(surface.dim):
        e = tuple([int(i == j) for i in range(surface.dim)])
        moves += [tensor_twist(surface, e), tensor_twist(surface, tuple([-x for x in e]))]
    mat = Matrix.identity(surface.extended_dim())
    for k in picks:
        mat = mat @ moves[k % len(moves)].mat
    return LatticeIsometry(surface, surface, mat)


picks = st.lists(st.integers(0, 1000), max_size=4)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(FAMILY_COVERS), picks, st.data())
def test_every_lift_family_member_satisfies_both_squares(name, word, data):
    t = LIFT_CATALOG.covers[name]
    phi = isometry_word(t.base, word)
    family = lift_isometry(phi, t, t)
    assert isinstance(family, LiftFamily)
    coeffs = data.draw(st.lists(st.fractions(-5, 5, max_denominator=7),
                                min_size=len(family.directions),
                                max_size=len(family.directions)))
    member = family.particular
    for c, d in zip(coeffs, family.directions):
        member = member + d.scale(c)
    assert member @ t.pull_extended == t.pull_extended @ phi.mat
    assert t.push_extended @ member == phi.mat @ t.push_extended


@SETTINGS
@given(st.sampled_from(VALID_BUILTIN_COVERS), picks)
def test_lift_then_descend_returns_the_isometry(name, word):
    t = CATALOG.covers[name]
    phi = isometry_word(t.base, word)
    lifts = lift_isometry(phi, t, t)
    assert len(lifts) == 1
    back = descend_isometry(lifts[0], t, t)
    assert back and back.isometry.mat == phi.mat


# The cyclic-action functions loop over the true order of the generator;
# the references below loop over the stated order, as the definitions do.

def reference_norm(rep):
    total, power = Matrix.zero(rep.dim, rep.dim), Matrix.identity(rep.dim)
    for _ in range(rep.order):
        total, power = total + power, power @ rep.gen
    return total


def reference_equivariant(phi, a_y, a_x):
    n = a_y.order
    pows_y, pows_x = [Matrix.identity(a_y.dim)], [Matrix.identity(a_x.dim)]
    for _ in range(n - 1):
        pows_y.append(pows_y[-1] @ a_y.gen)
        pows_x.append(pows_x[-1] @ a_x.gen)
    for k in range(1, n + 1):
        if gcd(k, n) == 1 and all(pows_x[j] @ phi.mat == phi.mat @ pows_y[j * k % n]
                                  for j in range(n)):
            return [j * k % n for j in range(n)]
    return None


def reference_orbit_sum(action, e, m):
    total, current = [0] * action.dim, e.coords()
    for _ in range(m):
        total = [a + b for a, b in zip(total, current)]
        current = action.gen.apply(current)
    return ExtendedVector.from_coords(tuple(total))


@SETTINGS
@given(reps, st.integers(1, 4))
def test_norm_and_ker_im_match_stated_order_loops(rep, multiple):
    for r in (rep, CyclicRep(rep.order * multiple, rep.dim, rep.gen)):
        n_op = norm_operator(r)
        assert n_op == reference_norm(r)
        report = verify_ker_im(r)
        assert report.dim_ker_norm == r.dim - len(reference_rref(n_op.entries)[1])
        assert report.rank_difference == len(
            reference_rref(difference_operator(r).entries)[1])


QUAD = NumericalSurface("quad", BilinearForm.from_rows([[0, 1], [1, 0]]), 0, 1)
ROTATION = Matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])  # order 4 on QUAD
ACTION_SURFACES = [s for _, s in sorted(CATALOG.surfaces.items()) if s.canonical_order == 1]


def finite_order_isometries(surface):
    """Isometries of finite order: +-1 on the whole lattice or on Num, and
    the catalog swap or the rotation where they live."""
    mats = [identity_isometry(surface).mat, minus_one(surface).mat, num_negation(surface).mat]
    if surface is QUAD:
        mats += [ROTATION, -ROTATION, ROTATION.power(3)]
    if surface == CATALOG.actions["swap"].surface:
        mats.append(CATALOG.actions["swap"].gen)
    return mats


def true_order(g):
    t, power = 1, g
    while power != Matrix.identity(g.nrows):
        t, power = t + 1, power @ g
    return t


@st.composite
def action_pairs(draw):
    """Two actions of one stated order on one surface, each a conjugate of a
    finite-order isometry, often with a non-faithful stated order, and a
    lattice isometry phi; half the time a_x is phi a_y^k phi^-1.  QUAD,
    the one surface with order-4 actions, is drawn half the time."""
    surface = draw(st.one_of(st.just(QUAD), st.sampled_from(ACTION_SURFACES)))
    phi = isometry_word(surface, draw(picks))
    gens = []
    for _ in range(2):
        h = isometry_word(surface, draw(picks)).mat
        base = draw(st.sampled_from(finite_order_isometries(surface)))
        gens.append(h @ base @ inverse(h))
    if draw(st.booleans()):
        gens[1] = phi.mat @ gens[0].power(draw(st.sampled_from([1, 3]))) @ inverse(phi.mat)
    n = lcm(true_order(gens[0]), true_order(gens[1])) * draw(st.sampled_from([1, 2, 3, 6]))
    return phi, GActionLattice(surface, n, gens[0]), GActionLattice(surface, n, gens[1])


@SETTINGS
@given(action_pairs(), st.data())
def test_equivariance_and_orbit_sums_match_stated_order_loops(case, data):
    phi, a_y, a_x = case
    for y, x in ((a_y, a_x), (a_x, a_y), (a_y, a_y)):
        assert repr(check_equivariant(phi, y, x)) == repr(reference_equivariant(phi, y, x))
    m = data.draw(st.sampled_from([d for d in range(1, a_y.order + 1) if a_y.order % d == 0]))
    e = data.draw(characters(a_y.surface))
    try:
        expected = repr(reference_orbit_sum(a_y, e, m))
    except InvariantError as exc:
        with pytest.raises(InvariantError, match=re.escape(str(exc))):
            orbit_sum(a_y, e, m)
    else:
        assert repr(orbit_sum(a_y, e, m)) == expected
