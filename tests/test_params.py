import pytest

from ospring.params import C_LIGHT, HBAR


def test_constants_match_scipy():
    constants = pytest.importorskip("scipy.constants")
    # exact SI values: the literals must be the very same doubles
    assert C_LIGHT == constants.c
    assert HBAR == constants.hbar
