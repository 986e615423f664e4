"""Value semantics of the package's immutable types.

Each of the value classes is built once from the built-in catalog and
checked for what a frozen value promises: its repr, equality and hash
with a rebuilt copy, inequality with a tuple of the same fields, no
attribute assignment or deletion, and copy and pickle round trips.  The
pinned reprs are those the classes printed as frozen dataclasses.
"""

import copy
import pickle

import pytest

from fmlattice.averaging import CyclicRep, KerImReport, verify_ker_im
from fmlattice.catalog import Catalog, ReproCheck, ReproReport, builtin_catalog
from fmlattice.covers import CoverCheck, CoverTransfer, CoverValidation, degree_identity
from fmlattice.defsio import CatalogEntry, VectorEntry
from fmlattice.descent import GcdCertificate, ObstructionReport, divisibility_obstruction, freeness_gcd
from fmlattice.lattice import BilinearForm, Matrix
from fmlattice.surfaces import ExtendedVector, NumericalSurface
from fmlattice.transport import (
    DescentOutcome,
    GActionLattice,
    LatticeIsometry,
    LiftFamily,
    descend_isometry,
    identity_isometry,
)

CATALOG = builtin_catalog()
K3 = CATALOG.surfaces["k3_toy"]
PRODUCT = CATALOG.surfaces["product_elliptic"]
ENR = CATALOG.covers["enriques_cover"]
BI2 = CATALOG.covers["bielliptic_cover_2"]
SWAP = CATALOG.actions["swap"]
SWAP_EXT = Matrix([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])

# Each builder returns a new instance equal to the last, built through the
# class's own constructor (or the library call that builds it).
BUILDERS = {
    "BilinearForm": lambda: BilinearForm(2, Matrix([[2, 1], [1, -2]])),
    "ExtendedVector": lambda: ExtendedVector(1, (0, 2), "1/2"),
    "NumericalSurface": lambda: NumericalSurface(K3.name, K3.num, K3.chi_o, K3.canonical_order),
    "CoverTransfer": lambda: CoverTransfer(ENR.base, ENR.cover, ENR.degree, ENR.pull_num, ENR.push_num),
    "CoverCheck": lambda: degree_identity(ENR),
    "CoverValidation": lambda: CoverValidation((degree_identity(ENR), CoverCheck("x", False, "y"))),
    "GcdCertificate": lambda: freeness_gcd(BI2, CATALOG.vectors["v_4_2l_1"].chern),
    "ObstructionReport": lambda: divisibility_obstruction(BI2, CATALOG.vectors["poincare"].chern, 2),
    "GActionLattice": lambda: GActionLattice(SWAP.surface, SWAP.order, SWAP.gen),
    "LatticeIsometry": lambda: identity_isometry(K3),
    "DescentOutcome": lambda: descend_isometry(LatticeIsometry(PRODUCT, PRODUCT, SWAP_EXT), BI2, BI2),
    "LiftFamily": lambda: LiftFamily(Matrix([[1, 0], [0, 1]]), (Matrix([[0, 1], [0, 0]]),)),
    "CyclicRep": lambda: CyclicRep(4, 2, Matrix([[0, -1], [1, 0]])),
    "KerImReport": lambda: verify_ker_im(CyclicRep(4, 2, Matrix([[0, -1], [1, 0]]))),
    "Catalog": lambda: Catalog((CatalogEntry("k3_toy", "surface", K3),)),
    "ReproCheck": lambda: ReproCheck("chi", "1", "1"),
    "ReproReport": lambda: ReproReport("ex0", (ReproCheck("chi", "1", "2"),)),
    "VectorEntry": lambda: VectorEntry(K3, ExtendedVector(1, (0,), -1)),
    "CatalogEntry": lambda: CatalogEntry("ideal_point", "vector", VectorEntry(K3, ExtendedVector(1, (0,), -1))),
}

REPRS = {
    'BilinearForm': 'BilinearForm(dim=2, gram=Matrix[2,1;1,-2])',
    'ExtendedVector': 'ExtendedVector(r=1, c=(0, 2), s=Fraction(1, 2))',
    'NumericalSurface': "NumericalSurface(name='k3_toy', num=BilinearForm(dim=1, gram=Matrix[4]), chi_o=2, canonical_order=1)",
    'CoverTransfer': "CoverTransfer(base=NumericalSurface(name='enriques_toy', num=BilinearForm(dim=1, gram=Matrix[2]), chi_o=1, canonical_order=2), cover=NumericalSurface(name='k3_toy', num=BilinearForm(dim=1, gram=Matrix[4]), chi_o=2, canonical_order=1), degree=2, pull_num=Matrix[1], push_num=Matrix[2])",
    'CoverCheck': "CoverCheck(name='degree_identity', passed=True, detail='push o pull = 2 * id on Num(enriques_toy)')",
    'CoverValidation': "CoverValidation(checks=(CoverCheck(name='degree_identity', passed=True, detail='push o pull = 2 * id on Num(enriques_toy)'), CoverCheck(name='x', passed=False, detail='y')))",
    'GcdCertificate': "GcdCertificate(values=(('O', 1), ('e1', -2), ('e2', -4), ('point', 8)), gcd=1, free=True)",
    'ObstructionReport': "ObstructionReport(applicable=True, reason=None, divisor=1, all_divisible=True, values=(('O', 0), ('e1', 0), ('e2', 0), ('point', 2)))",
    'GActionLattice': "GActionLattice(order=2, dim=4, gen=Matrix[1,0,0,0;0,0,1,0;0,1,0,0;0,0,0,1], surface=NumericalSurface(name='product_elliptic', num=BilinearForm(dim=2, gram=Matrix[0,1;1,0]), chi_o=0, canonical_order=1))",
    'LatticeIsometry': "LatticeIsometry(source=NumericalSurface(name='k3_toy', num=BilinearForm(dim=1, gram=Matrix[4]), chi_o=2, canonical_order=1), target=NumericalSurface(name='k3_toy', num=BilinearForm(dim=1, gram=Matrix[4]), chi_o=2, canonical_order=1), mat=Matrix[1,0,0;0,1,0;0,0,1])",
    'DescentOutcome': "DescentOutcome(isometry=None, failure='no integral solution', witness=((0, 2, 0, 0), (0, 0, 1, 0)))",
    'LiftFamily': 'LiftFamily(particular=Matrix[1,0;0,1], directions=(Matrix[0,1;0,0],))',
    'CyclicRep': 'CyclicRep(order=4, dim=2, gen=Matrix[0,-1;1,0])',
    'KerImReport': 'KerImReport(holds=True, dim_ker_norm=2, rank_difference=2)',
    'Catalog': "Catalog(entries=(CatalogEntry(id='k3_toy', kind='surface', payload=NumericalSurface(name='k3_toy', num=BilinearForm(dim=1, gram=Matrix[4]), chi_o=2, canonical_order=1)),))",
    'ReproCheck': "ReproCheck(name='chi', computed='1', expected='1')",
    'ReproReport': "ReproReport(example='ex0', checks=(ReproCheck(name='chi', computed='1', expected='2'),))",
    'VectorEntry': "VectorEntry(surface=NumericalSurface(name='k3_toy', num=BilinearForm(dim=1, gram=Matrix[4]), chi_o=2, canonical_order=1), chern=ExtendedVector(r=1, c=(0,), s=Fraction(-1, 1)))",
    'CatalogEntry': "CatalogEntry(id='ideal_point', kind='vector', payload=VectorEntry(surface=NumericalSurface(name='k3_toy', num=BilinearForm(dim=1, gram=Matrix[4]), chi_o=2, canonical_order=1), chern=ExtendedVector(r=1, c=(0,), s=Fraction(-1, 1))))",
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_repr_is_pinned(name):
    assert repr(BUILDERS[name]()) == REPRS[name]


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_equal_and_hash_with_a_rebuilt_copy(name):
    a, b = BUILDERS[name](), BUILDERS[name]()
    assert a is not b and type(a).__name__ == name
    assert a == b and not a != b and a == a
    assert hash(a) == hash(b)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_not_equal_to_a_tuple_of_its_fields(name):
    a = BUILDERS[name]()
    fields = tuple(vars(a).values())
    assert a != fields and fields != a
    assert not a == fields


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_attributes_cannot_be_assigned_or_deleted(name):
    a = BUILDERS[name]()
    first = next(iter(vars(a)))
    with pytest.raises(AttributeError):
        setattr(a, first, None)
    with pytest.raises(AttributeError):
        setattr(a, "new_attribute", None)
    with pytest.raises(AttributeError):
        delattr(a, first)
    assert a == BUILDERS[name]()


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_copy_and_pickle_give_an_equal_object(name):
    a = BUILDERS[name]()
    for other in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(other) is type(a)
        assert other == a and hash(other) == hash(a)
        assert repr(other) == repr(a)


def test_classes_of_equal_fields_are_not_equal():
    rep = CyclicRep(SWAP.order, SWAP.dim, SWAP.gen)
    assert rep != SWAP and SWAP != rep
    assert KerImReport(True, 0, 0) != ReproCheck(True, 0, 0)


def test_cached_properties_still_cache():
    s = NumericalSurface(K3.name, K3.num, K3.chi_o, K3.canonical_order)
    assert s.euler_gram is s.euler_gram
    assert s == K3 and hash(s) == hash(K3)


# bench/tracing.py times the validation of LatticeIsometry and of
# GActionLattice by replacing the class attribute __post_init__ with a
# wrapper; the constructors must look it up through self, once each.
@pytest.mark.parametrize("cls, build", [
    (LatticeIsometry, lambda: identity_isometry(K3)),
    (GActionLattice, lambda: GActionLattice(SWAP.surface, SWAP.order, SWAP.gen)),
])
def test_validation_is_one_replaceable_class_attribute(monkeypatch, cls, build):
    assert "__post_init__" in cls.__dict__
    original = cls.__dict__["__post_init__"]
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, "__post_init__", counted)
    value = build()
    assert calls == [value]
    build()
    assert len(calls) == 2
