"""Every frozen record of the package behaves as its ``dataclasses`` twin: the
record class compiled a second time from its own source, with
``@dataclass(frozen=True)`` in place of ``@record``.  Record and twin are
built from the field values of an instance the package produced, and must
agree on construction (positional, keyword and with defaults, argument errors
included), ``repr``, equality, hash, frozenness, ``__slots__`` and
``replace``.
"""

import __future__
import dataclasses
import inspect
import re
import sys
import textwrap
from fractions import Fraction

import pytest

from padic_rama import cli, congruence, constants, exactnum, expansion, lfunctions, replace, series
from padic_rama.congruence import (
    Kron,
    LQp,
    ZetaP,
    fit_unknowns,
    scan_next_term,
    verify_congruence,
)
from padic_rama.constants import ONE, Lquad, One, PiPower, SqrtDisc, Zeta
from padic_rama.exactnum import ResidueClass, primes_in_range, reduce_rational
from padic_rama.expansion import shifted_expansion, verify_expansion
from padic_rama.lfunctions import QuadCharacter

MODULES = (cli, congruence, constants, exactnum, expansion, lfunctions, series)
RECORDS = sorted((cls for module in MODULES for cls in vars(module).values()
                  if isinstance(cls, type) and cls.__module__ == module.__name__
                  and getattr(cls.__init__, "__module__", None) == "padic_rama._record"),
                 key=lambda cls: (cls.__module__, cls.__name__))
_DECORATOR = re.compile(r"^@record$", re.M)


def _twin(cls):
    """``cls`` compiled again from its source as a frozen dataclass, in its
    module's namespace."""
    source, n = _DECORATOR.subn("@dataclasses.dataclass(frozen=True)",
                                textwrap.dedent(inspect.getsource(cls)))
    assert n == 1, cls
    namespace = {**vars(sys.modules[cls.__module__]), "dataclasses": dataclasses}
    exec(compile(source, inspect.getsourcefile(cls), "exec",
                 flags=__future__.annotations.compiler_flag, dont_inherit=True), namespace)
    return namespace[cls.__name__]


def _outcome(make):
    """("ok", value) of make(), or the class and message of what it raises;
    a record or twin value is given as its class name and field values."""
    try:
        value = make()
    except Exception as exc:  # noqa: BLE001  (the comparison is the test)
        return type(exc), str(exc)
    if dataclasses.is_dataclass(value) or hasattr(value, "_fields"):
        value = type(value).__name__, _state(value)
    return "ok", value


def _state(obj) -> tuple:
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(_TWINS[type(obj).__name__]))


@pytest.fixture(scope="module")
def instances(series, templates, claims):
    """One instance of each record class, as the package's routes build them."""
    spec, tpl = series["eq2"], templates["eq5"]
    report = verify_congruence(spec, tpl, primes_in_range(5, 40))
    fit = fit_unknowns(series["eq9"], templates["eq11-unknowns"], primes_in_range(7, 199))
    scan = scan_next_term(series["eq6"], templates["eq8"], primes_in_range(5, 120),
                          [ZetaP(5), ONE])
    cf = claims["eq3-claims"]
    checked = verify_expansion(spec, cf.claims, cf.order, 128)
    found = [ONE, PiPower(2), Zeta(3), Lquad(-4, 2), SqrtDisc(2), Kron(5), ZetaP(3),
             LQp(-4, 2), QuadCharacter(-23), reduce_rational(Fraction(3, 4), 5, 3),
             ResidueClass(3, 7), spec, spec.rhs, tpl, tpl.terms[1], report,
             report.rows[0], fit, scan, scan.candidates[0], cf, cf.claims[0], checked,
             checked.checks[0], shifted_expansion(spec, 2, 128)]
    return {type(obj): obj for obj in found}


_TWINS = {cls.__name__: _twin(cls) for cls in RECORDS}
IDS = [cls.__name__ for cls in RECORDS]


def test_every_record_class_is_covered(instances):
    assert len(RECORDS) == 25
    assert set(instances) == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_fields_and_slots_match_the_twin(cls, instances):
    twin, obj = _TWINS[cls.__name__], instances[cls]
    assert cls._fields == tuple(f.name for f in dataclasses.fields(twin))
    assert getattr(cls, "__slots__", None) == getattr(twin, "__slots__", None)
    assert hasattr(obj, "__dict__") == ("__slots__" not in vars(cls))


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_construction_matches_the_twin(cls, instances):
    twin, obj = _TWINS[cls.__name__], instances[cls]
    values = [getattr(obj, name) for name in cls._fields]
    named = dict(zip(cls._fields, values))
    required = {f.name: named[f.name] for f in dataclasses.fields(twin)
                if f.default is dataclasses.MISSING}
    for args, kwargs in [(values, {}), ((), named), (values[:1], dict(list(named.items())[1:])),
                         ((), required), ([*values, 0], {}), (values, {"no_such_field": 0}),
                         (values[:1], named), (values[:-1], {})]:
        got = _outcome(lambda: cls(*args, **kwargs))
        want = _outcome(lambda: twin(*args, **kwargs))
        assert got[0] == want[0] and (got[0] is TypeError or got == want), (args, kwargs)
    record = cls(*values)
    assert record == obj == cls(**named)
    assert repr(record) == repr(twin(*values)) == repr(obj)
    assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(twin(*values)))
    assert record != twin(*values) and twin(*values) != record


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_records_are_frozen_like_the_twin(cls, instances):
    twin, obj = _TWINS[cls.__name__], instances[cls]
    copy = twin(*(getattr(obj, name) for name in cls._fields))
    for target in (obj, copy):
        for name in (*cls._fields, "no_such_field"):
            with pytest.raises(AttributeError, match="cannot assign to field"):
                setattr(target, name, 0)
        for name in cls._fields:
            with pytest.raises(AttributeError, match="cannot delete field"):
                delattr(target, name)
    assert obj == cls(*(getattr(obj, name) for name in cls._fields))


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_replace_matches_the_twin(cls, instances):
    twin, obj = _TWINS[cls.__name__], instances[cls]
    copy = twin(*(getattr(obj, name) for name in cls._fields))
    for name in cls._fields:
        same = {name: getattr(obj, name)}
        assert _state(replace(obj, **same)) == _state(dataclasses.replace(copy, **same))
    assert _outcome(lambda: replace(obj, no_such_field=0))[0] is TypeError


def test_replace_checks_the_new_values():
    twin = _TWINS["Zeta"]
    with pytest.raises(ValueError, match="k must be >= 2"):
        replace(Zeta(3), k=1)
    with pytest.raises(ValueError, match="k must be >= 2"):
        dataclasses.replace(twin(3), k=1)
    assert replace(Zeta(3), k=4) == Zeta(4)
    assert replace(PiPower(1), exponent=2) == PiPower(2)


def test_equality_and_hash_depend_on_the_class():
    assert ZetaP(5) != Kron(5) and Kron(5) != ZetaP(5)
    assert Zeta(3) != PiPower(3)
    assert One() == ONE and hash(One()) == hash(ONE)
    assert ZetaP(5) == ZetaP(k=5) and hash(ZetaP(5)) == hash(ZetaP(k=5))
    assert len({ZetaP(5), Kron(5), Zeta(5), PiPower(5), SqrtDisc(5)}) == 5
    assert {ZetaP(5): 1}.get(Kron(5)) is None
    assert repr(ZetaP(5)) == "ZetaP(k=5)"  # as in the goldens


def test_class_attributes_stay_on_the_class():
    assert "disc" not in ZetaP._fields and "disc" in vars(ZetaP)
    assert ZetaP.disc == 1 and ZetaP(7).disc == 1
    assert ZetaP(7) == replace(ZetaP(3), k=7)
