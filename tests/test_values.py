"""Value classes: the immutable classes that check their input when built.

Each compares and hashes as the tuple of its _fields, within its own class
only; its repr reads as a dataclass's did; no attribute can be set or
deleted; pickling and copying rebuild it through its constructor, so its
checks run again. And importing the CLI imports neither `dataclasses` nor
`inspect`, which made up much of the start-up time of one CLI process.
"""

import copy
import math
import os
import pickle
import subprocess
import sys

import pytest

from hhcheck import (
    BoundInstance, ConvexityClass, DomainInterval, HFunction, HolderPair, MeanKind,
    PropositionInstance, parse,
)
from hhcheck.expr import Node, Value
from hhcheck.quadrature import Partition

H = HFunction("power", s=0.5)
CLS = ConvexityClass("h_alpha_m", h=H, alpha=0.5, m=0.9)
F = parse("x^2")

# one or more values of each class, each with its repr as a frozen dataclass
# printed it
VALUES = [
    (DomainInterval(-1, 2.5, open_lo=True),
     "DomainInterval(lo=-1.0, hi=2.5, open_lo=True, open_hi=False)"),
    (DomainInterval(-0.0, 1.0), "DomainInterval(lo=-0.0, hi=1.0, open_lo=False, open_hi=False)"),
    (H, "HFunction(kind='power', s=0.5, expr=None)"),
    (HFunction.custom(parse("t*(2-t)", var="t")),
     "HFunction(kind='custom', s=1.0, expr=Mul(left=Var(name='t'), "
     "right=Sub(left=Const(value=2.0), right=Var(name='t'))))"),
    (CLS, "ConvexityClass(sense='h_alpha_m', h=HFunction(kind='power', s=0.5, expr=None), "
          "alpha=0.5, m=0.9, s=1.0)"),
    (ConvexityClass("plain_convex"),
     "ConvexityClass(sense='plain_convex', h=HFunction(kind='identity', s=1.0, expr=None), "
     "alpha=1.0, m=1.0, s=1.0)"),
    (BoundInstance("T2", F, 0.5, 1.5, CLS, HolderPair.from_p(2)),
     "BoundInstance(rule_id='T2', f=Pow(base=Var(name='x'), exponent=Const(value=2.0)), "
     "a=0.5, b=1.5, cls=ConvexityClass(sense='h_alpha_m', h=HFunction(kind='power', s=0.5, "
     "expr=None), alpha=0.5, m=0.9, s=1.0), hp=HolderPair(p=2.0, q=2.0))"),
    (BoundInstance("T4", parse("exp(x)"), 0, 1, ConvexityClass("h_alpha_m")),
     "BoundInstance(rule_id='T4', f=Exp(arg=Var(name='x')), a=0, b=1, "
     "cls=ConvexityClass(sense='h_alpha_m', h=HFunction(kind='identity', s=1.0, expr=None), "
     "alpha=1.0, m=1.0, s=1.0), hp=None)"),
    (HolderPair(3.0, 1.5), "HolderPair(p=3.0, q=1.5)"),
    (MeanKind("Lp", p=2.0), "MeanKind(tag='Lp', p=2.0)"),
    (MeanKind("A"), "MeanKind(tag='A', p=None)"),
    (PropositionInstance("P4", 1.0, 2.0, 2.0, n=3),
     "PropositionInstance(id='P4', a=1.0, b=2.0, p=2.0, n=3)"),
    (PropositionInstance("P1", 1, 2, 3), "PropositionInstance(id='P1', a=1, b=2, p=3, n=None)"),
    (Partition((0, 0.5, 1)), "Partition(points=(0.0, 0.5, 1.0))"),
    (Partition([1.0, 2.0]), "Partition(points=(1.0, 2.0))"),
]
IDS = [text.split("(")[0] for _, text in VALUES]


def _fields(value):
    return tuple(getattr(value, name) for name in value._fields)


@pytest.mark.parametrize("value, text", VALUES, ids=IDS)
class TestValueClass:
    def test_repr_is_the_dataclass_repr(self, value, text):
        assert repr(value) == text

    def test_equality_and_hash_are_the_fields_tuple(self, value, text):
        assert hash(value) == hash(_fields(value))
        for other, _ in VALUES:
            same = type(other) is type(value) and _fields(other) == _fields(value)
            assert (other == value) is same and (other != value) is not same
        assert value != _fields(value) and value.__eq__(_fields(value)) is NotImplemented

    def test_another_class_is_never_equal(self, value, text):
        subclass = type("Sub", (type(value),), {"__slots__": ()})
        other = subclass(*value.__reduce__()[1])
        assert _fields(other) == _fields(value) and repr(other) == "Sub" + text[text.index("("):]
        assert other != value and value != other

    def test_no_attribute_can_be_set_or_deleted(self, value, text):
        before = _fields(value)
        for name in type(value).__slots__ + ("extra",):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert _fields(value) == before and not hasattr(value, "__dict__")

    def test_pickles_and_copies_are_equal(self, value, text):
        copies = [pickle.loads(pickle.dumps(value, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for back in copies + [copy.copy(value), copy.deepcopy(value)]:
            assert type(back) is type(value) and back == value and repr(back) == text


# one live node of each expression kind
NODES = {type(node): node for node in
         (parse("x"), parse("2"), parse("x + 1"), parse("x - 1"), parse("2*x"), parse("x/2"),
          parse("x^2"), parse("exp(x)"), parse("ln(x)"), parse("abs(x)"), parse("-x"))}


@pytest.mark.parametrize("value", [v for v, _ in VALUES] + list(NODES.values()),
                         ids=IDS + [kind.__name__ for kind in NODES])
def test_every_value_refuses_a_change_in_one_message_form(value):
    for name in value._fields + ("extra",):
        message = f"{type(value).__name__} is immutable: cannot change {name!r}"
        with pytest.raises(AttributeError) as exc:
            setattr(value, name, None)
        assert str(exc.value) == message
        with pytest.raises(AttributeError) as exc:
            delattr(value, name)
        assert str(exc.value) == message


def test_every_node_kind_is_a_value():
    assert len(NODES) == len(Node.__subclasses__()) == 11
    for kind, node in NODES.items():
        assert isinstance(node, Value) and kind._args == kind._fields
        # equality stays identity, and a pickle comes back as the live node
        assert hash(node) == object.__hash__(node) and node.__eq__(kind) is NotImplemented
        assert pickle.loads(pickle.dumps(node)) is node


@pytest.mark.parametrize("count", [1, 3])
def test_store_refuses_a_wrong_value_count(count):
    value = object.__new__(HolderPair)
    with pytest.raises(ValueError):
        value._store(*[2.0] * count)


class TestDomainInterval:
    def test_the_signs_of_the_endpoints_count(self):
        assert DomainInterval(-0.0, 1.0) != DomainInterval(0.0, 1.0)
        assert DomainInterval(0, 1) == DomainInterval(0.0, 1.0)
        assert hash(DomainInterval(0, 1)) == hash(DomainInterval(0.0, 1.0))
        assert DomainInterval(-0.0, 1.0).signs == (-1.0, 1.0)

    def test_signs_are_compared_but_not_shown(self):
        assert DomainInterval._fields == ("lo", "hi", "open_lo", "open_hi", "signs")
        assert "signs" not in repr(DomainInterval(-0.0, 1.0))


class TestHFunction:
    def test_table_attributes_are_slots_but_not_fields(self):
        assert HFunction.__slots__ == HFunction._fields + ("fn", "exponent", "text")
        assert H.fn(0.25) == 0.5 and H.exponent == 0.5 and H.text == "t^0.5"


def test_keyword_construction_keeps_the_parameter_names():
    assert ConvexityClass("h_alpha_m", h=H, alpha=0.5, m=0.9) == CLS
    assert HFunction("power", s=0.5) == HFunction.power(0.5)
    assert MeanKind("Lp", p=2.0) == MeanKind("Lp", 2.0)
    assert DomainInterval(lo=0.0, hi=1.0, open_lo=True, open_hi=True) == \
        DomainInterval(0.0, 1.0, True, True)
    assert HFunction(kind="custom", expr=F).expr is F
    assert ConvexityClass(sense="s_first", s=0.5).s == 0.5
    assert BoundInstance(rule_id="T2", f=F, a=0.0, b=1.0, cls=CLS, hp=HolderPair(p=2.0, q=2.0)) == \
        BoundInstance("T2", F, 0.0, 1.0, CLS, HolderPair(2.0, 2.0))
    assert PropositionInstance(id="P4", a=1.0, b=2.0, p=2.0, n=3).n == 3
    assert Partition(points=(0.0, 1.0)).n == 1


C = ConvexityClass("h_alpha_m")
ERRORS = [
    (lambda: DomainInterval(math.inf, 1.0), "interval endpoint lo must be finite, got inf"),
    (lambda: DomainInterval(0.0, math.nan), "interval endpoint hi must be finite, got nan"),
    (lambda: DomainInterval(1, 0), "interval requires lo < hi, got [1.0, 0.0]"),
    (lambda: HFunction("bogus"), "unknown h kind 'bogus'"),
    (lambda: HFunction("power", s=1.5), "power h needs s in (0,1], got 1.5"),
    (lambda: HFunction("custom"), "custom h needs an expression"),
    (lambda: ConvexityClass("nope"),
     "unknown sense 'nope'; expected one of ('plain_convex', 'h_plain', 'alpha_m', "
     "'h_alpha_m', 's_first', 's_second', 's_alpha_m_first', 's_alpha_m_second')"),
    (lambda: ConvexityClass("alpha_m", alpha=1.5), "alpha must lie in [0,1], got 1.5"),
    (lambda: ConvexityClass("alpha_m", m=0.0), "m must lie in (0,1], got 0.0"),
    (lambda: ConvexityClass("s_first", s=0), "s must lie in (0,1], got 0"),
    (lambda: ConvexityClass("plain_convex", alpha=0.5),
     "sense 'plain_convex' does not use alpha; leave it at 1"),
    (lambda: ConvexityClass("alpha_m", h=HFunction.power(0.5)),
     "sense 'alpha_m' does not use h; leave it at identity"),
    (lambda: BoundInstance("T9", F, 0.0, 1.0, C),
     "unknown rule 'T9'; expected one of ('T1', 'T2', 'C1', 'T3', 'C2', 'T4', 'T5', 'C3', "
     "'T6', 'C4')"),
    (lambda: BoundInstance("T1", F, 1.0, 0.0, C), "need finite a < b, got (1.0, 0.0)"),
    (lambda: BoundInstance("T1", F, 0.0, 1.0, ConvexityClass("plain_convex")),
     "bound rules are parameterized by the h_alpha_m sense, got 'plain_convex'"),
    (lambda: BoundInstance("T2", F, 0.0, 1.0, C), "rule T2 requires a Holder pair"),
    (lambda: BoundInstance("T1", F, 0.0, 1.0, C, HolderPair(2.0, 2.0)),
     "rule T1 takes no Holder pair"),
    (lambda: HolderPair(1.0, 2.0), "p must be finite and exceed 1, got 1.0"),
    (lambda: HolderPair(2.0, 3.0), "(p=2.0, q=3.0) are not conjugate"),
    (lambda: MeanKind("Q"), "unknown mean 'Q'; expected one of ('A', 'G', 'H', 'L', 'I', 'Lp')"),
    (lambda: MeanKind("Lp"), "Lp needs a finite exponent p, got None"),
    (lambda: MeanKind("Lp", 0.0), "Lp at p=-1 is L and at p=0 is I; use those tags"),
    (lambda: MeanKind("A", 2.0), "mean A takes no exponent"),
    (lambda: PropositionInstance("P9", 1.0, 2.0, 2.0), "unknown proposition 'P9'"),
    (lambda: PropositionInstance("P1", 2.0, 1.0, 2.0), "need 0 < a < b, got (2.0, 1.0)"),
    (lambda: PropositionInstance("P1", 1.0, 2.0, 1.0), "p must be finite and exceed 1, got 1.0"),
    (lambda: PropositionInstance("P4", 1.0, 2.0, 2.0), "P4 needs the integer exponent n"),
    (lambda: PropositionInstance("P1", 1.0, 2.0, 2.0, n=3), "P1 takes no exponent n"),
    (lambda: Partition((0.0,)), "a partition needs at least two points"),
    (lambda: Partition((0.0, 0.0)),
     "points must be finite and strictly increasing, got 0.0 >= 0.0"),
    (lambda: Partition((0.0, math.inf)),
     "points must be finite and strictly increasing, got 0.0 >= inf"),
]


@pytest.mark.parametrize("build, message", ERRORS)
def test_each_check_keeps_its_message(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("value, good, bad, message", [
    (MeanKind("Lp", 2.0), b"F2.0\n", b"F0.0\n", "Lp at p=-1 is L and at p=0 is I; use those tags"),
    (DomainInterval(0.0, 1.0), b"F1.0\n", b"Fnan\n", "interval endpoint hi must be finite, got nan"),
    (HolderPair(3.0, 1.5), b"F3.0\n", b"F1.0\n", "p must be finite and exceed 1, got 1.0"),
])
def test_unpickling_runs_the_checks(value, good, bad, message):
    data = pickle.dumps(value, 0)
    assert data.count(good) == 1 and pickle.loads(data) == value
    with pytest.raises(ValueError) as exc:
        pickle.loads(data.replace(good, bad))
    assert str(exc.value) == message


def test_importing_the_cli_imports_no_dataclasses():
    code = "import sys, hhcheck.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=os.environ)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
