import pytest

from salemsurf import lattice as lat
from salemsurf import mod2space as m2
from salemsurf import surface as sf
from salemsurf.gf2m import gf32


@pytest.fixture(scope="session")
def ctx():
    return gf32()


@pytest.fixture(scope="session")
def model():
    return sf.load_model()


@pytest.fixture(scope="session")
def sigma_inv(model):
    return sf.derive_sigma_inverse(model)


@pytest.fixture(scope="session")
def conj_scalar(model, sigma_inv):
    return sf.conjugation_scalar(model, sigma_inv)


@pytest.fixture(scope="session")
def e10_basis():
    """The bundled E10 basis, read the way the lattice suite reads it."""
    return lat.e10_basis(sf._read_data(None, "e10_basis.dat"))


@pytest.fixture(scope="session")
def e10_restriction(e10_basis):
    return e10_basis, lat.restrict_to_basis(lat.coxeter_matrix(), e10_basis)


@pytest.fixture(scope="session")
def census(e10_basis):
    return m2.enumerate_lagrangians(m2.Mod2QuadSpace(lat.gram_of(e10_basis)))
