"""The package's records are immutable named tuples: built by keyword or by
position in a fixed field order, frozen, and compared by value where a record
of plain values allows it (RParams compares by identity, see test_yangbaxter)."""

import importlib
import pathlib
import re

import numpy as np
import pytest

import braidphase
from braidphase import braid, cli, dynamics, entanglement, linalg, states, yangbaxter
from braidphase.dynamics import DriveParams
from braidphase.yangbaxter import SpectralParam

DRIVE = DriveParams(0.7, 0.2, 1.3, 0.9)
STATE = states.basis_state("000")

# each record with its fields, in order, and values that build it
RECORDS = {
    "EigenDecomposition": (linalg.EigenDecomposition, "eigenvalues eigenvectors",
                           tuple(linalg.eigh(np.diag([1.0, 2.0]).astype(complex)))),
    "SpinOps": (braid.SpinOps, "s_plus s_minus s3", tuple(braid.SPIN)),
    "BraidSet": (braid.BraidSet, "phi m4 a8 b8 mcal mbb",
                 tuple(braid.build_braidset(0.3))),
    "Es2Report": (braid.Es2Report, "phi residuals ambiguous",
                  tuple(braid.check_es2_relations(braid.build_braidset(0.3)))),
    "RParams": (yangbaxter.RParams, "theta phi", (0.5, -1.0)),
    "SpectralParam": (SpectralParam, "x", (np.exp(0.3j),)),
    "DriveParams": (DriveParams, "theta phi phi_dot hbar", tuple(DRIVE)),
    "SpectrumReport": (dynamics.SpectrumReport, "eigenvalues degeneracy_pattern "
                       "closed_form_match fixture_residuals projector_residuals "
                       "hamiltonian_covariance",
                       tuple(dynamics.spectrum(DRIVE))),
    "EntanglementReport": (entanglement.EntanglementReport, "tau_abc c_ab c_bc c_ac "
                           "c2_a_bc c2_b_ac c2_c_ab monogamy_residual",
                           tuple(entanglement.full_report(STATE))),
    "RunReport": (cli.RunReport, "command parameters results residual_summary passes",
                  ("entangle", {"theta": 0.5}, {}, {"g": 0.0}, {"g": True})),
}


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_records_table_and_readme_name_the_same_records():
    # every namedtuple subclass the package defines, the records tested here,
    # and the README's list of them: one set of names
    defined = set()
    for path in pathlib.Path(braidphase.__file__).parent.glob("*.py"):
        module = importlib.import_module(f"braidphase.{path.stem}")
        defined.update(name for name, value in vars(module).items()
                       if isinstance(value, type) and issubclass(value, tuple)
                       and hasattr(value, "_fields") and value.__module__ == module.__name__)
    sentence = re.search(r"Every record the package returns or takes \((.*?)\)",
                         README.read_text(encoding="utf-8"), re.DOTALL)
    assert sentence, "the README's record list is missing"
    listed = re.findall(r"`(\w+)`", sentence.group(1))
    assert len(listed) == len(set(listed))
    assert defined == set(RECORDS) == set(listed)


def same_fields(a, b) -> bool:
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in zip(a, b, strict=True))


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    record, fields, values = RECORDS[name]
    fields = tuple(fields.split())
    assert record.__name__ == name and record._fields == fields
    by_position = record(*values)
    by_keyword = record(**dict(zip(fields, values)))
    assert type(by_keyword) is type(by_position) is record
    assert same_fields(by_keyword, by_position) and same_fields(by_keyword, values)
    assert repr(by_keyword).startswith(f"{name}({fields[0]}=")
    for field in fields:  # frozen: no field can be set, and no attribute added
        with pytest.raises(AttributeError):
            setattr(by_keyword, field, values[0])
    with pytest.raises(AttributeError):
        by_keyword.extra = 1.0


def test_drive_defaults_and_repr():
    d = DriveParams(0.5, 0.2)
    assert (d.phi_dot, d.hbar) == (1.0, 1.0) and d == DriveParams(0.5, 0.2, 1.0, 1.0)
    assert repr(d) == "DriveParams(theta=0.5, phi=0.2, phi_dot=1.0, hbar=1.0)"


@pytest.mark.parametrize("make", [lambda: DriveParams(0.5, 0.2, hbar=2.0),
                                  lambda: SpectralParam(np.exp(0.3j))])
def test_value_records_compare_and_hash_by_value(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1


@pytest.mark.parametrize("record, field, bad", [
    (DRIVE, "hbar", -1.0),
    (SpectralParam(1j), "x", 2.0),
    (yangbaxter.RParams(0.5, 1.0), "phi", np.inf),
])
def test_replace_validates(record, field, bad):
    # _replace builds through the validating constructor, as construction does
    with pytest.raises(ValueError):
        record._replace(**{field: bad})


def test_eigen_decomposition_unpacks():
    values, vectors = dec = linalg.eigh(np.diag([2.0, 1.0]).astype(complex))
    assert values is dec.eigenvalues and vectors is dec.eigenvectors
