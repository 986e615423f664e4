"""transport: the domain solvers at Num ranks 2, 10 and 18.

Lift-then-descend and freeness certificates run on the built-in
bielliptic covers (rank 2) and on the benchmark's rank-10 Enriques/K3
pair; equivariance runs on the rank-18 K3 slice with the action swapping
its two E8 summands; each such operation builds the action and the
isometry, so both validations run inside it.  Each round holds a fixed number of operations per
cover and kind; the seed picks the isometries and classes.  Many small
fixed-size products, inverses and validations make per-call overhead in
Matrix, LatticeIsometry and GActionLattice visible here, and so does
scaling with rank.

The mix keeps the median operation inside one group of latencies: with
fewer certificates it sat where failed rank-2 lifts (about 0.6 ms) end
and successful ones (about 1.1 ms, lift plus descent) begin, and the
share of lifts that succeed, which the seed sets, moved it from one
group to the other.
"""

from __future__ import annotations

import refarith as R
from harness import ENRIQUES_K3_DEFS, K3_SWAP_DEFS, Op, expect, mat

DEFS = (ENRIQUES_K3_DEFS, K3_SWAP_DEFS)
BIELLIPTIC = tuple(f"bielliptic_cover_{n}" for n in (2, 3, 4, 6))
RANK10 = "bench_enriques_cover"
LIFTS_PER_COVER = 48
CLASSES_PER_COVER = 48
EQUIVARIANCE_CASES = 96


def random_isometry(rng, s: R.Surface, factors):
    """A product of tensor twists, Num negation and reflections in Mukai
    vectors of square -2, as reference rows."""
    m = R.identity(s.dim + 2)
    for _ in range(factors):
        kind = rng.choice(("twist", "negate", "reflect", "reflect"))
        if kind == "twist":
            g = R.tensor_twist(s, _sparse(rng, s.dim))
        elif kind == "negate":
            g = R.num_negation(s)
        else:
            c = _sparse(rng, s.dim)
            # (1, c, c^2/2 + 1) has square -2 on any even lattice
            g = R.reflection(s, (1, *c, R.pair(s.gram, c, c) // 2 + 1))
        m = R.matmul(g, m)
    return R.normalize(m)


def _sparse(rng, d):
    c = [0] * d
    for _ in range(min(d, 2)):
        c[rng.randrange(d)] = rng.choice((-1, 1))
    return tuple(c)


def e8_reflection_word(rng, offsets):
    """Product of reflections in E8 simple roots, applied at each E8 summand
    starting at the given Num offsets of the rank-18 slice."""
    s = R.K3_SLICE18
    m = R.identity(s.dim + 2)
    for _ in range(rng.randint(2, 5)):
        i = rng.randrange(8)
        for off in offsets:
            root = [0] * (s.dim + 2)
            root[1 + off + i] = 1
            m = R.matmul(R.reflection(s, tuple(root)), m)
    return m


def build(fm, catalog, rng):
    covers, surfaces = catalog.covers, catalog.surfaces
    ops = []
    for name in BIELLIPTIC + (RANK10,):
        t, ref = covers[name], R.COVERS[name]
        for _ in range(LIFTS_PER_COVER):
            phi = random_isometry(rng, ref.base, rng.randint(2, 4))
            iso = fm.LatticeIsometry(t.base, t.base, fm.Matrix(phi))
            ops.append(Op("lift_descend", _lift_call(fm, iso, t), _lift_check(ref, phi)))
        for _ in range(CLASSES_PER_COVER):
            d = ref.cover.dim
            e = (rng.randint(0, 4), tuple(rng.randint(-3, 3) for _ in range(d)), rng.randint(-3, 3))
            chern = t.cover.character(*e)
            ops.append(Op("freeness_gcd", _free_call(fm, t, chern), _free_check(ref, e)))
    k3, gen = surfaces["bench_k3_18"], R.swap_e8_action()
    for i in range(EQUIVARIANCE_CASES):
        phi = e8_reflection_word(rng, (2, 10) if i % 2 == 0 else (rng.choice((2, 10)),))
        ops.append(Op("check_equivariant", _equivariant_call(fm, k3, fm.Matrix(phi), fm.Matrix(gen)),
                      _equivariant_check(phi, gen)))
    return ops, None


def _lift_call(fm, iso, t):
    def call():
        lifts = fm.lift_isometry(iso, t, t)
        return lifts, [fm.descend_isometry(lift, t, t) for lift in lifts]
    return call


def lift_candidate(ref: R.Cover, phi):
    """pull_x phi pull_y^-1 when it is an integral isometry satisfying both
    squares, else None: the only possible lift, since pull is invertible."""
    pull, push = R.pull_ext(ref), R.push_ext(ref)
    cand = R.normalize(R.matmul(R.matmul(pull, phi), R.inverse(pull)))
    if not R.is_integral(cand):
        return None
    if R.matmul(cand, pull) != R.matmul(pull, phi) or R.matmul(push, cand) != R.matmul(phi, push):
        return None
    if not R.is_isometry(ref.cover, ref.cover, cand):
        return None
    return cand


def _lift_check(ref, phi):
    expected = lift_candidate(ref, phi)

    def check(result):
        lifts, descents = result
        expect(isinstance(lifts, list), f"lift_isometry returned {type(lifts).__name__}")
        if expected is None:
            expect(not lifts, "lift_isometry lifted a map whose only candidate fails")
            return 1
        expect(len(lifts) == 1 and mat(lifts[0].mat) == expected,
               "lift_isometry missed or changed the integral lift")
        outcome = descents[0]
        expect(outcome.isometry is not None and mat(outcome.isometry.mat) == phi,
               f"descending the lift does not give the input back: {outcome.failure}")
        return R.bits(expected)
    return check


def _free_call(fm, t, chern):
    return lambda: fm.freeness_gcd(t, chern)


def _free_check(ref, e):
    pushed = R.push(ref, e)
    values = tuple((label, R.chi(ref.base, f, pushed)) for label, f in R.generators(ref.base))
    g = R.gcd_all(v for _, v in values)

    def check(cert):
        expect(tuple(cert.values) == values, f"certificate values {cert.values}, expected {values}")
        expect(cert.gcd == g and cert.free == (g == 1), f"gcd {cert.gcd} / free {cert.free}, expected {g}")
        return R.bits([v for _, v in values])
    return check


def _equivariant_call(fm, k3, phi, gen):
    def call():
        action = fm.GActionLattice(k3, 2, gen)
        return fm.check_equivariant(fm.LatticeIsometry(k3, k3, phi), action, action)
    return call


def _equivariant_check(phi, gen):
    powers = [R.identity(len(gen)), gen]  # the swap has order 2; its only unit exponent is 1
    holds = {(j, k): R.matmul(powers[j], phi) == R.matmul(phi, powers[k])
             for j in range(2) for k in range(2)}

    def check(exponents):
        if exponents is None:
            expect(not holds[1, 1], "check_equivariant missed the unit exponent 1, which works")
            return 1
        expect(len(exponents) == 2 and exponents[1] == 1, f"bad exponents {exponents}")
        expect(all(holds[j, k] for j, k in enumerate(exponents)),
               f"g^j phi != phi g^mu(j) for exponents {exponents}")
        return R.bits(list(exponents))
    return check
