import pytest

from ospring.params import C_LIGHT, HBAR, MechanicalOscillator


def test_constants_match_scipy():
    constants = pytest.importorskip("scipy.constants")
    # exact SI values: the literals must be the very same doubles
    assert C_LIGHT == constants.c
    assert HBAR == constants.hbar


@pytest.mark.parametrize(
    "args, message",
    [
        ((0.0,), "mass must be positive"),
        ((-1e-10, 1.0, 1.0), "mass must be positive"),
        ((1e-10, -1.0, 0.0), "mechanical rates must be non-negative"),
        ((1e-10, 0.0, -1.0), "mechanical rates must be non-negative"),
    ],
)
def test_oscillator_rejects_unphysical_mechanics(args, message):
    # a library caller reaches these checks; a run configuration is refused before them
    with pytest.raises(ValueError, match=message):
        MechanicalOscillator(*args)
