import sys

import numpy as np
import pytest

from qfcool import closed_forms

# The ThermoReport fields that closed_forms._energies returns, in its order.
ENERGIES = ("work_measurement", "work_feedback", "heat_reset", "delta_e_system", "total_work")


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


@pytest.fixture
def random_density(rng):
    """Factory for random full-rank density matrices (Wishart construction)."""
    def make(dim=4):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = g @ g.conj().T
        return rho / np.trace(rho).real
    return make


@pytest.fixture
def random_unitary(rng):
    """Factory for Haar-ish random unitaries (QR with phase fix)."""
    def make(dim=4):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, r = np.linalg.qr(g)
        d = np.diag(r)
        return q * (d / np.abs(d))[None, :]
    return make


@pytest.fixture
def bell_state():
    """|Phi+><Phi+| = (|00> + |11>)(<00| + <11|)/2."""
    v = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return np.outer(v, v.conj())


@pytest.fixture
def calls(monkeypatch):
    """``calls(owner, name)`` wraps ``owner.name`` under every binding of that object, in ``owner``
    and in each loaded qfcool module, and returns the list of each call's positional arguments."""
    def probe(owner, name):
        real, recorded = getattr(owner, name), []

        def wrapper(*args, **kwargs):
            recorded.append(args)
            return real(*args, **kwargs)
        modules = [m for key, m in list(sys.modules.items()) if key.partition(".")[0] == "qfcool"]
        for holder in [owner, *(m for m in modules if m is not owner and vars(m).get(name) is real)]:
            monkeypatch.setattr(holder, name, wrapper)
        return recorded
    return probe


@pytest.fixture
def corrupt_closed_form(monkeypatch):
    """``corrupt(field, delta)`` shifts one ThermoReport field by ``delta`` where the closed
    forms compute it, so that ``figures_of_merit`` and every grid carry it: an energy in the
    shared formula ``closed_forms._energies``, the entropy reduction in ``closed_forms._columns``."""
    def corrupt(field, delta):
        if field == "entropy_reduction":
            honest_columns = closed_forms._columns
            monkeypatch.setattr(closed_forms, "_columns", lambda *args: [
                c._replace(entropy_reduction=c.entropy_reduction + delta) for c in honest_columns(*args)])
        else:
            honest, k = closed_forms._energies, ENERGIES.index(field)
            monkeypatch.setattr(closed_forms, "_energies", lambda c, r: tuple(
                e + delta if i == k else e for i, e in enumerate(honest(c, r))))
    return corrupt
