import pytest

from sncindex import codec

from reference import all_instances


@pytest.fixture(scope="session")
def specs_k40():
    """Every valid K <= 40 code, built once: decoder rows that one test
    derives serve the next."""
    return [codec.build_code(inst) for inst in all_instances(40)]
