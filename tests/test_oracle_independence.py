"""The matrix routes reach no closed form: each oracle runs with every
function and class of ``closed_forms`` replaced by one that raises, under
every name a qfcool module binds it to.

A few names are shared by both routes on purpose (``ALLOWED``): the
parameter record and its checks, the record builder, and
``level_splitting``, which defines the Hamiltonian that both routes read.

EoF: Wootters' map from concurrence to entanglement of formation is the
definition that both routes share, so ``entanglement_of_formation`` may
call ``eof_from_concurrence`` and its ``binary_entropy`` (``EOF_MAP``);
the referee's EoF of pure states (``tests/test_referee.py``) checks that
map.  The concurrence it maps has its own matrix route.
"""

import inspect
import sys

import pytest

from qfcool import closed_forms, correlations, protocol, sweep, thermo, verify
from qfcool.closed_forms import ProtocolParams

ALLOWED = {"ProtocolParams", "_record", "_require_count", "_is_finite_real", "_real", "level_splitting"}
EOF_MAP = {"eof_from_concurrence", "binary_entropy"}
POINT = (0.4, 0.8, 1.0)


def _raising(name):
    def closed_form(*args, **kwargs):
        raise AssertionError(f"a matrix route called closed_forms.{name}")
    return closed_form


def _probe(monkeypatch, allowed):
    """Replace each closed_forms function and class outside ``allowed`` by one that raises,
    in closed_forms and in every qfcool module that imported it."""
    probed = {id(value): name for name, value in vars(closed_forms).items()
              if (inspect.isfunction(value) or inspect.isclass(value))
              and value.__module__ == closed_forms.__name__ and name not in allowed}
    modules = [m for n, m in list(sys.modules.items()) if n == "qfcool" or n.startswith("qfcool.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in probed:
                monkeypatch.setattr(module, attr, _raising(probed[id(value)]))
    return probed


# Each route at POINT, given (params, rho_m, grid) built before the probe; the
# grid's closed forms are built with it, its matrix stacks on first use.
ROUTES = {
    "run_protocol": lambda p, rho, g: protocol.run_protocol(p),
    "concurrence": lambda p, rho, g: correlations.concurrence(rho),
    "mutual_information": lambda p, rho, g: correlations.mutual_information(rho),
    "discord_numeric_a": lambda p, rho, g: correlations.discord_numeric(rho, "A"),
    "discord_numeric_s": lambda p, rho, g: correlations.discord_numeric(rho, "S"),
    "matrix_oracles": lambda p, rho, g: thermo.matrix_oracles(p),
    "trace_summary": lambda p, rho, g: verify._trace_oracles(g),
    # the grid's own energy oracles and entropies, which must not read its closed-form box
    "grid_oracles": lambda p, rho, g: [g.oracles, *map(g.entropy, vars(g.trace))],
    # the discord subgrid's basis search and concurrence, which verify's discord classes read
    "grid_discords": lambda p, rho, g: g.discords,
    "entanglement_of_formation": lambda p, rho, g: correlations.entanglement_of_formation(rho),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_matrix_route_calls_no_closed_form(monkeypatch, route):
    params = ProtocolParams(*POINT)
    rho_m = protocol.run_protocol(params).rho_m
    grid = sweep._Grid([(params.eps_s, (params.eps_a,))], (params.phi,), params.temperature)
    probed = _probe(monkeypatch, ALLOWED | (EOF_MAP if route == "entanglement_of_formation" else set()))
    assert {"thermal_entropy", "discord_analytic", "_concurrence", "_trace_summary",
            "_report_fields"} <= set(probed.values())
    ROUTES[route](params, rho_m, grid)


def test_the_probe_catches_a_closed_form(monkeypatch):
    # without the EoF allowance, the matrix EoF reaches the shared map
    rho_m = protocol.run_protocol(ProtocolParams(*POINT)).rho_m
    _probe(monkeypatch, ALLOWED)
    with pytest.raises(AssertionError, match="closed_forms.eof_from_concurrence"):
        correlations.entanglement_of_formation(rho_m)
