"""Every public name of the package resolves, so a broken re-export fails here."""

import redunet


def test_every_public_name_resolves():
    assert [name for name in redunet.__all__ if not hasattr(redunet, name)] == []
    assert len(set(redunet.__all__)) == len(redunet.__all__)


def test_rate_gradient_is_the_vector_networks():
    from redunet import vector

    assert redunet.rate_gradient is vector.rate_gradient
