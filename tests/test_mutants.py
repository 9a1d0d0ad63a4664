"""The mutation survey (`tests/mutants.py`) names a test subset for every
module it can mutate."""

from pathlib import Path

import mutants
from ruledger import contracts


def test_every_module_with_a_predicate_has_a_test_subset():
    package = Path(contracts.__file__).parent
    unsurveyed = [path.relative_to(package).as_posix() for path in sorted(package.rglob("*.py"))
                  if mutants.if_tests(path.read_text(encoding="utf-8"))
                  and path.relative_to(package).as_posix() not in mutants.SUBSETS]
    assert unsurveyed == []


def test_every_subset_names_existing_test_files():
    tests = Path(__file__).parent
    assert all((tests / name).is_file() for names in mutants.SUBSETS.values() for name in names)
