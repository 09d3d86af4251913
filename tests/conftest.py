import pytest

from sncindex import codec, mds

from reference import all_instances


@pytest.fixture(scope="session")
def specs_k40():
    """Every valid K <= 40 code, built once: decoder rows that one test
    derives serve the next."""
    return [codec.build_code(inst) for inst in all_instances(40)]


@pytest.fixture(scope="session")
def mds_specs_k40():
    """Every valid K <= 40 GF(p) baseline code with its decoder table, built once."""
    specs = [mds.build_mds(inst) for inst in all_instances(40)]
    for spec in specs:
        mds.decoder_table(spec)
    return specs
