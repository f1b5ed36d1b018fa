"""Value semantics of the library's classes, and how often the support of
a partition is measured or checked.

The expected values were recorded from the frozen-dataclass versions of
SetPartition and Composition, and from the dataclass records.
"""

from collections import Counter
import importlib

import pytest

from conjlab import (
    Composition,
    DistributionTable,
    DomainError,
    PhiTrace,
    SeparationRecord,
    SetPartition,
    VerifyReport,
    cli,
    complement,
    conjugate,
    noncrossing,
    parse_partition,
    partition,
)
from conjlab.enumeration import iter_set_partitions, iter_set_partitions_of
from conjlab.verify import CheckResult

# conjlab.phi is the function; its module is imported by name.
phi_module = importlib.import_module("conjlab.phi")

BLOCKS = ((1, 3), (2,))
PARTS = (2, 1, 2, 3)

# (value, an equal value, an unequal value, its field, the field's name, repr)
VALUES = [
    (
        SetPartition(BLOCKS),
        SetPartition(((1, 3), (2,))),
        SetPartition(((1,), (2, 3))),
        BLOCKS,
        "blocks",
        "SetPartition(blocks=((1, 3), (2,)))",
    ),
    (
        Composition(PARTS),
        Composition((2, 1, 2, 3)),
        Composition((3, 2, 1, 2)),
        PARTS,
        "parts",
        "Composition(parts=(2, 1, 2, 3))",
    ),
]
IDS = ["SetPartition", "Composition"]


@pytest.mark.parametrize("value, same, other, field, name, text", VALUES, ids=IDS)
class TestOneFieldValues:
    def test_equality(self, value, same, other, field, name, text):
        assert value == same and not value != same
        assert value != other and not value == other

    def test_never_equal_to_a_plain_tuple(self, value, same, other, field, name, text):
        for plain in (field, (field,)):
            assert value != plain and not value == plain
            assert plain != value and not plain == value

    def test_hash_is_that_of_the_field_tuple(self, value, same, other, field, name, text):
        assert hash(value) == hash(same) == hash((field,))

    def test_repr(self, value, same, other, field, name, text):
        assert repr(value) == text

    def test_fields_cannot_be_assigned_or_deleted(self, value, same, other, field, name, text):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, field)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
        with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
            value.extra = 1
        assert getattr(value, name) == field


@pytest.mark.parametrize(
    "record, fields, defaults",
    [
        (SeparationRecord, ("rho", "a_set", "b_set", "role"), {}),
        (PhiTrace, ("forward_rows", "reverse_rows", "k"), {}),
        (DistributionTable, ("n", "pair", "counts"), {}),
        (
            CheckResult,
            ("invariant", "scope", "items", "failures", "counterexample"),
            {"counterexample": None},
        ),
        (VerifyReport, ("n_max", "comp_n_max", "results"), {}),
    ],
)
def test_record_fields_and_defaults(record, fields, defaults):
    assert record._fields == fields
    assert record._field_defaults == defaults


def test_record_hash_is_that_of_its_fields():
    rec = SeparationRecord(parse_partition("1 3"), frozenset({2}), frozenset(), "IS")
    assert hash(rec) == hash((rec.rho, rec.a_set, rec.b_set, rec.role))


@pytest.mark.parametrize("text", ["2 5 - 3", "1 2 - 3"])
def test_adjacency_profile_sizes_the_support_once(monkeypatch, text):
    calls = []
    inner = partition.support_size
    monkeypatch.setattr(partition, "support_size", lambda blocks: calls.append(blocks) or inner(blocks))
    partition.adjacency_profile(parse_partition(text))
    assert len(calls) == 1


def test_conjugate_checks_the_support_once(monkeypatch):
    checked = []
    inner = partition.require_full_support
    for module in (phi_module, partition):
        monkeypatch.setattr(
            module, "require_full_support", lambda p, n: checked.append(p) or inner(p, n)
        )
    p = parse_partition("1 5 8 - 2 - 3 - 4 - 6 7")
    assert conjugate(p, 8) == parse_partition("1 - 2 4 - 3 - 5 6 7 8")
    assert checked == [p]


FIGURE = "1 5 8 - 2 - 3 - 4 - 6 7"


@pytest.mark.parametrize(
    "call, sizings, gates",
    [
        (lambda: partition.inferred_n(parse_partition(FIGURE)), 1, 1),
        (lambda: noncrossing.kreweras_complement(parse_partition(FIGURE)), 1, 1),
        (lambda: noncrossing.rotate_partition(parse_partition(FIGURE), -1), 1, 1),
        (lambda: noncrossing.graphical_conjugate(parse_partition(FIGURE)), 1, 1),
        # The command leaves the check of its input to kreweras_complement.
        (lambda: cli.main(["kreweras", FIGURE]), 1, 1),
    ],
    ids=["inferred_n", "kreweras_complement", "rotate_partition", "graphical_conjugate", "cli"],
)
def test_full_support_entry_points_size_and_check_once(monkeypatch, capsys, call, sizings, gates):
    counts = Counter()
    for name in ("support_size", "require_full_support"):
        inner = getattr(partition, name)

        def counted(*args, inner=inner, name=name):
            counts[name] += 1
            return inner(*args)

        for module in (partition, phi_module, noncrossing, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    call()
    assert counts == {"support_size": sizings, "require_full_support": gates}


@pytest.mark.parametrize(
    "text, n, message",
    [
        ("2 - 3", 2, "support of '2 - 3' is not 1..2"),
        ("1 2", 3, "support of '1 2' is not 1..3"),
        ("1 3", 2, "support of '1 3' is not 1..2"),
        ("", 0, "support of '(empty)' is not 1..0"),
    ],
)
def test_support_errors_name_the_input(text, n, message):
    p = parse_partition(text)
    for fn in (conjugate, complement):
        with pytest.raises(DomainError) as err:
            fn(p, n)
        assert str(err.value) == message


def outcome(call, p):
    """The blocks that call(p) returns, or the text of its DomainError."""
    try:
        return call(p).blocks
    except DomainError as err:
        return f"DomainError: {err}"


FULL_SUPPORT_MAPS = {
    "complement": lambda p, n: complement(p, n),
    "conjugate": lambda p, n: conjugate(p, n),
    "kreweras_complement": lambda p, n: noncrossing.kreweras_complement(p),
    "rotate_partition": lambda p, n: noncrossing.rotate_partition(p, 2),
    "graphical_conjugate": lambda p, n: noncrossing.graphical_conjugate(p),
}


@pytest.mark.parametrize("name", FULL_SUPPORT_MAPS)
def test_a_bare_partition_of_n_is_ranked_once(monkeypatch, name):
    # The support check hands the map the growth string it has just built.
    calls = []
    inner = partition.ranks
    monkeypatch.setattr(partition, "ranks", lambda blocks: calls.append(blocks) or inner(blocks))
    for n in range(1, 6):
        for p in iter_set_partitions(n):
            if noncrossing.is_noncrossing(p):
                calls.clear()
                FULL_SUPPORT_MAPS[name](SetPartition(p.blocks), n)
                assert calls == [p.blocks], (name, str(p))


def viewed_inputs():
    """Partitions with a handed-over view: of [m] from the enumeration and
    from phi, with labels over sparse supports, and built by hand with
    labels over full and sparse supports."""
    out = [p for m in range(1, 5) for p in iter_set_partitions(m)]
    out += iter_set_partitions_of([7, 3, 8])
    out += [phi_module.phi(p) for p in iter_set_partitions_of([2, 4, 5, 9])]
    for p in iter_set_partitions(4):
        m, _, g = p._view
        out.append(partition._lazy(g, p._sizes, list(range(m + 1))))
        spread = [0, 1, 2, 3, 5]  # rank 4 is the element 5
        out.append(partition._lazy(g, p._sizes, spread))
    return out


@pytest.mark.parametrize("name", FULL_SUPPORT_MAPS)
def test_viewed_inputs_get_the_same_support_verdict(name):
    # require_full_support reads the view of a partition of [m] without
    # scanning its blocks; its verdict and wording are those for a copy
    # without a view.
    call = FULL_SUPPORT_MAPS[name]
    errors = 0
    for p in viewed_inputs():
        bare = SetPartition(p.blocks)
        m = sum(map(len, p.blocks))
        for n in (m - 1, m, m + 1):
            got = outcome(lambda q: call(q, n), p)
            assert got == outcome(lambda q: call(q, n), bare), (name, str(p), n)
            errors += isinstance(got, str) and "support of" in got
    assert errors


@pytest.mark.parametrize(
    "p, n, message",
    [
        (list(iter_set_partitions(3))[0], 4, "support of '1 2 3' is not 1..4"),
        (list(iter_set_partitions(3))[4], 2, "support of '1 - 2 - 3' is not 1..2"),
        (list(iter_set_partitions_of([7, 3, 8]))[1], 3, "support of '3 7 - 8' is not 1..3"),
        (phi_module.phi(parse_partition("2 - 5")), 2, "support of '2 5' is not 1..2"),
    ],
)
def test_viewed_support_errors_name_the_input(p, n, message):
    assert "_view" in vars(p)
    for fn in (conjugate, complement):
        with pytest.raises(DomainError) as err:
            fn(p, n)
        assert str(err.value) == message


def test_a_view_of_one_to_m_is_not_measured(monkeypatch):
    # A view without labels says the support is 1..m: no block scan.
    monkeypatch.setattr(partition, "support_size", None)
    for p in iter_set_partitions(5):
        assert conjugate(conjugate(p, 5), 5) == p
        assert "_view" in vars(complement(phi_module.phi(p), 5))
