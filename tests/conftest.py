import pytest

import rissim.linkbudget
from rissim.geom import spherical_to_cartesian
from rissim.io_cli import load_scenario
from rissim.optimizer import ACTIVE, REFLECTIVE, optimize_config
from rissim.sweep import sweep_power


@pytest.fixture
def kernel_rows(monkeypatch):
    """Position counts of the element_phasor_matrix calls made through coherent_sums,
    which starts with no block and no sums kept."""
    kernel = rissim.linkbudget.element_phasor_matrix
    rows = []

    def counting(scenario, positions, elements=None):
        rows.append(len(positions))
        return kernel(scenario, positions, elements)

    monkeypatch.setattr(rissim.linkbudget, "element_phasor_matrix", counting)
    monkeypatch.setattr(rissim.linkbudget, "_block", (None, None, None))
    monkeypatch.setattr(rissim.linkbudget, "_sums", (None, None, None))
    return rows


@pytest.fixture
def apply_rows(kernel_rows, monkeypatch):
    """Position counts of the apply_config calls made through coherent_sums, which
    starts with no block and no sums kept."""
    apply = rissim.linkbudget.apply_config
    rows = []

    def counting(phasors, config):
        rows.append(len(phasors))
        return apply(phasors, config)

    monkeypatch.setattr(rissim.linkbudget, "apply_config", counting)
    return rows


@pytest.fixture(scope="session")
def doc():
    return load_scenario(None)


@pytest.fixture(scope="session")
def scenario(doc):
    return doc.scenario


@pytest.fixture(scope="session")
def p1(doc):
    return doc.targets["P1"]


@pytest.fixture(scope="session")
def p2(doc):
    return doc.targets["P2"]


def _optimized(scenario, target, alphabet):
    return optimize_config(scenario, spherical_to_cartesian(target), alphabet)


@pytest.fixture(scope="session")
def refl_p1(scenario, p1):
    return _optimized(scenario, p1, REFLECTIVE)


@pytest.fixture(scope="session")
def refl_p2(scenario, p2):
    return _optimized(scenario, p2, REFLECTIVE)


@pytest.fixture(scope="session")
def active_p1(scenario, p1):
    return _optimized(scenario, p1, ACTIVE)


@pytest.fixture(scope="session")
def active_p2(scenario, p2):
    return _optimized(scenario, p2, ACTIVE)


@pytest.fixture(scope="session")
def sweep_refl_p1(scenario, refl_p1, doc):
    return sweep_power(scenario, refl_p1, doc.grid, label="reflective P1")


@pytest.fixture(scope="session")
def sweep_refl_p2(scenario, refl_p2, doc):
    return sweep_power(scenario, refl_p2, doc.grid, label="reflective P2")


@pytest.fixture(scope="session")
def sweep_active_p1(scenario, active_p1, doc):
    return sweep_power(scenario, active_p1, doc.grid, label="active P1")


@pytest.fixture(scope="session")
def sweep_active_p2(scenario, active_p2, doc):
    return sweep_power(scenario, active_p2, doc.grid, label="active P2")
