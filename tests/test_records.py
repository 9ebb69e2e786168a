"""The public records: named tuples, plus IndexSet, a small immutable class.

Each record keeps the constructor, field order and repr text it had as a
dataclass or typing.NamedTuple; the frozen ones keep equality and hashing;
none takes assignment.
A fresh interpreter that imports zmx.cli loads neither dataclasses nor
inspect, which is most of what the import used to cost.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path as FilePath

import pytest

import zmx
from zmx import IndexSet, Matrix, Path, classify, digraph_of, type_d_verify
from zmx.cli import gather_info
from zmx.construct import TypeDVerification
from zmx.cyclic import CyclicProducts, cyclic_products
from zmx.digraph import Digraph
from zmx.verify import VerifySummary
from zmx.zclass import ClassReport, ZRepresentation, z_decompose

A = Matrix([[2, -1], [-1, 2]])


def test_import_cli_loads_neither_dataclasses_nor_inspect():
    src = str(FilePath(zmx.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys; before = set(sys.modules); import zmx.cli; "
        "print(' '.join(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before))))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


# (record, its fields in order, its repr text)
RECORDS = [
    (
        classify(A),
        ("n", "is_z", "is_nonsingular", "determinant", "irreducible", "is_m",
         "is_nonsingular_m", "is_n", "is_n0", "is_f0", "l_index"),
        "ClassReport(n=2, is_z=True, is_nonsingular=True, determinant=Fraction(3, 1), "
        "irreducible=True, is_m=True, is_nonsingular_m=True, is_n=False, is_n0=False, "
        "is_f0=False, l_index=2)",
    ),
    (
        z_decompose(A, 3),
        ("t", "b"),
        "ZRepresentation(t=Fraction(3, 1), b=Matrix([['1', '1'], ['1', '1']]))",
    ),
    (
        type_d_verify([1, 2, 3]),
        ("tridiagonal", "z", "l_index_of_inverse"),
        "TypeDVerification(tridiagonal=True, z=True, l_index_of_inverse=3)",
    ),
    (
        VerifySummary("polyn", 2, 3, 1, 0, 2, []),
        ("theorem", "n_lo", "n_hi", "trials", "seed", "checks", "failures"),
        "VerifySummary(theorem='polyn', n_lo=2, n_hi=3, trials=1, seed=0, checks=2, failures=[])",
    ),
    (
        gather_info(A)[1],
        ("is_full", "is_inverse_cyclic", "is_bdsw", "d", "c", "d_minus_c", "verdict",
         "inverse", "inverse_is_z", "inverse_is_bdsw"),
        "CyclicInfo(is_full=True, is_inverse_cyclic=True, is_bdsw=True, d=Fraction(4, 1), "
        "c=Fraction(1, 1), d_minus_c=Fraction(3, 1), verdict='Neither', "
        "inverse=Matrix([['2/3', '1/3'], ['1/3', '2/3']]), inverse_is_z=False, inverse_is_bdsw=True)",
    ),
    (
        gather_info(Matrix([[1, 1], [1, 1]]))[1],
        ("is_full", "is_inverse_cyclic", "is_bdsw", "d", "c", "d_minus_c", "verdict",
         "inverse", "inverse_is_z", "inverse_is_bdsw"),
        "CyclicInfo(is_full=True, is_inverse_cyclic=True, is_bdsw=True, d=Fraction(1, 1), "
        "c=Fraction(1, 1), d_minus_c=Fraction(0, 1), verdict='Neither', inverse=None, "
        "inverse_is_z=None, inverse_is_bdsw=None)",
    ),
    (Digraph(2, [(1, 2)]), ("n", "edges"), "Digraph(n=2, edges=frozenset({(1, 2)}))"),
    (Path((1, 2), 3), ("vertices", "n"), "Path(vertices=(1, 2), n=3)"),
    (IndexSet(5, (1, 3)), ("base", "members"), "IndexSet(base=5, members=(1, 3))"),
    (cyclic_products(A), ("d", "c"), "CyclicProducts(d=Fraction(4, 1), c=Fraction(1, 1))"),
]
FROZEN = (ClassReport, ZRepresentation, TypeDVerification, Digraph, Path, IndexSet, CyclicProducts)


@pytest.mark.parametrize("record, names, text", RECORDS, ids=[type(r).__name__ for r, _, _ in RECORDS])
def test_record_contract(record, names, text):
    cls = type(record)
    values = [getattr(record, name) for name in names]
    assert repr(record) == text
    # by position and by keyword, in field order
    assert cls(*values) == cls(**dict(zip(names, values))) == record
    assert repr(cls(*values)) == text
    if cls is not IndexSet:
        assert cls._fields == names and tuple(record) == tuple(values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    if cls in FROZEN:
        assert hash(cls(*values)) == hash(record)
        assert copy.copy(record) == pickle.loads(pickle.dumps(record)) == record


def test_records_differ_by_any_field():
    assert IndexSet(5, (1, 3)) != IndexSet(6, (1, 3))
    assert IndexSet(5, (1, 3)) != IndexSet(5, (1, 4))
    assert IndexSet(5, (1, 3)) != (5, (1, 3))
    assert Path((1, 2), 3) != Path((1, 2), 4)
    assert digraph_of(A) != Digraph(2, [(1, 2)])
    report = classify(A)
    assert report._replace(l_index=1) != report
    assert report._replace(determinant=Fraction(3)) == report


def test_index_set_sizes_and_iterates_its_members():
    s = IndexSet(5, (2, 4))
    assert len(s) == 2 and bool(s) and list(s) == [2, 4]
    assert IndexSet(5, s) == s  # an IndexSet is an iterable of its members
    empty = IndexSet(3, (1, 2, 3)).complement()
    assert len(empty) == 0 and not empty and list(empty) == []
    with pytest.raises(AttributeError):
        del s.members


def test_verify_summary_ok_reads_the_failures():
    assert VerifySummary("polyn", 2, 3, 1, 0, 2, []).ok
    assert not VerifySummary("polyn", 2, 3, 1, 0, 2, ["n=2 t=0"]).ok
