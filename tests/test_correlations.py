import inspect
import math

import mpmath
import numpy as np
import pytest

from qfcool import closed_forms, correlations
from qfcool.correlations import (
    DiscordOptimizationError, MeasurementBasis,
    binary_entropy, bloch_components, classical_correlations, concurrence,
    correlation_report, discord_analytic, discord_numeric, discord_threshold,
    entanglement_of_formation, eof_from_concurrence, mutual_information,
    mutual_information_analytic, optimal_measurement, thermal_entropy,
)
from qfcool.densmat import SIGMA_Y
from qfcool.protocol import ProtocolParams, run_protocol
from qfcool.verify import standard_grid

import projector_oracle
import scan_reference

HALF_PI = math.pi / 2
LN2 = math.log(2.0)

# frozen by the independent density-matrix oracle
DISCORD_BY_PHI = {
    0.0: 0.0,
    math.pi / 8: 0.012352661318138461,
    math.pi / 4: 0.04173170855896461,
    3 * math.pi / 8: 0.07052096270160932,
    HALF_PI: 0.08228287850505185,
}
DELTA_MIN_04 = 0.013490311384210377
CONCURRENCE_X_POINT = 0.26
EOF_X_POINT = 0.08691474466558588
MI_QUARTER_POINT = 0.38397286170539036


def rho_m_at(es, ea, phi):
    return run_protocol(ProtocolParams(es, ea, phi)).rho_m


# ---------------------------------------------------------------------------
# entropy helpers
# ---------------------------------------------------------------------------

def test_binary_entropy_endpoints_and_maximum():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - LN2) <= 1e-15


def test_thermal_entropy_closed_form():
    for eps in (0.0, 0.3, 0.8):
        expected = binary_entropy((1 - eps) / 2)
        assert abs(thermal_entropy(eps) - expected) <= 1e-15


# ---------------------------------------------------------------------------
# concurrence / entanglement of formation
# ---------------------------------------------------------------------------

def test_concurrence_of_product_state(random_density):
    rho = np.kron(random_density(2), random_density(2))
    assert concurrence(rho) <= 1e-8


def test_concurrence_of_bell_state(bell_state):
    assert abs(concurrence(bell_state) - 1.0) <= 1e-12


def test_post_measurement_state_separable_at_phi_zero():
    assert concurrence(rho_m_at(0.4, 0.8, 0.0)) == 0.0


def test_concurrence_frozen_at_x_measurement():
    assert abs(concurrence(rho_m_at(0.4, 0.8, HALF_PI)) - CONCURRENCE_X_POINT) <= 1e-9


def test_flip_spectrum_reproduces_concurrence():
    # Wootters' non-Hermitian route, which the library does not take: the lambda_i
    # are the square roots of the eigenvalues of rho (sy x sy) rho* (sy x sy)
    rho = rho_m_at(0.4, 0.8, HALF_PI)
    syy = np.kron(SIGMA_Y, SIGMA_Y)
    mu = np.linalg.eigvals(rho @ syy @ np.conj(rho) @ syy)
    lam = np.sort(np.sqrt(np.clip(mu.real, 0.0, None)))[::-1]
    assert np.max(np.abs(mu.imag)) <= 1e-12
    assert abs((lam[0] - lam[1] - lam[2] - lam[3]) - concurrence(rho)) <= 1e-9


def test_eof_endpoints_and_monotonicity():
    assert eof_from_concurrence(0.0) == 0.0
    assert abs(eof_from_concurrence(1.0) - LN2) <= 1e-12
    values = [eof_from_concurrence(c) for c in np.linspace(0.0, 1.0, 50)]
    assert all(b > a for a, b in zip(values, values[1:]))
    for c in (-0.1, 1.5):
        with pytest.raises(ValueError, match=r"concurrence must lie in \[0, 1\]"):
            eof_from_concurrence(c)


def test_eof_frozen_at_x_measurement():
    assert abs(entanglement_of_formation(rho_m_at(0.4, 0.8, HALF_PI)) - EOF_X_POINT) <= 1e-9


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------

def test_mutual_information_product_and_bell(random_density, bell_state):
    rho = np.kron(random_density(2), random_density(2))
    assert abs(mutual_information(rho)) <= 1e-10
    assert abs(mutual_information(bell_state) - 2 * LN2) <= 1e-10


def test_mutual_information_analytic_matches_numeric():
    cases = [
        (0.4, 0.8, math.pi / 4), (0.4, 0.8, 0.0), (0.4, 0.8, HALF_PI),
        (0.0, 0.8, math.pi / 4), (0.2, 0.4, 0.3), (0.6, 0.9, 1.2),
        (0.0, 0.0, 1.0), (0.7, 0.7, 0.5),
    ]
    for es, ea, phi in cases:
        params = ProtocolParams(es, ea, phi)
        numeric = mutual_information(run_protocol(params).rho_m)
        assert abs(mutual_information_analytic(params) - numeric) <= 1e-10


def test_mutual_information_frozen_value():
    params = ProtocolParams(0.4, 0.8, math.pi / 4)
    assert abs(mutual_information_analytic(params) - MI_QUARTER_POINT) <= 1e-12


def test_mutual_information_at_x_measurement_marginals_are_flat():
    # cos(phi) = 0 kills both effective marginal biases, leaving 2 ln 2
    # plus the (phi-independent) joint term
    params = ProtocolParams(0.4, 0.8, HALF_PI)
    joint = sum(
        lam * math.log(lam)
        for s1 in (-1, 1) for s2 in (-1, 1)
        for lam in [0.25 * (1 + s1 * 0.4) * (1 + s2 * 0.8)]
    )
    assert abs(mutual_information_analytic(params) - (2 * LN2 + joint)) <= 1e-12


# ---------------------------------------------------------------------------
# discord, numeric
# ---------------------------------------------------------------------------

def test_discord_of_product_state(random_density):
    rho = np.kron(random_density(2), random_density(2))
    assert discord_numeric(rho, "A") <= 1e-9


def test_discord_of_classical_quantum_state():
    # orthogonal ancilla projectors carrying non-commuting register states:
    # measuring the ancilla is classical, measuring the register is not
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    rho = 0.3 * np.kron(plus, zero) + 0.7 * np.kron(zero, one)
    assert discord_numeric(rho, "A") <= 1e-9
    assert discord_numeric(rho, "S") > 1e-3


def test_discord_of_bell_state(bell_state):
    assert abs(discord_numeric(bell_state, "A") - LN2) <= 1e-7


@pytest.mark.parametrize("phi", sorted(DISCORD_BY_PHI))
def test_discord_numeric_matches_closed_form(phi):
    rho = rho_m_at(0.4, 0.8, phi)
    assert abs(discord_numeric(rho, "A") - DISCORD_BY_PHI[phi]) <= 1e-6
    assert abs(discord_numeric(rho, "A") - discord_analytic(0.4, phi)) <= 1e-6


def test_discord_symmetry_between_sides():
    for phi in (0.3, 0.9, 1.4):
        rho = rho_m_at(0.35, 0.85, phi)
        assert abs(discord_numeric(rho, "A") - discord_numeric(rho, "S")) <= 1e-6


def test_discord_constant_across_ancilla_bias():
    values = [discord_numeric(rho_m_at(0.4, ea, 0.9), "A")
              for ea in (0.45, 0.65, 0.9)]
    assert max(values) - min(values) <= 1e-6


def test_discord_bounded_by_mutual_information(random_density):
    for _ in range(5):
        rho = random_density(4)
        delta = discord_numeric(rho, "A")
        assert 0.0 <= delta <= mutual_information(rho) + 1e-9


def test_optimal_measurement_reports_basis_and_gain(bell_state):
    basis, gain = optimal_measurement(bell_state, "A")
    assert isinstance(basis, MeasurementBasis)
    assert abs(gain - LN2) <= 1e-7
    proj_p, proj_m = basis.projectors()
    assert np.allclose(proj_p + proj_m, np.eye(2), atol=1e-12)
    assert np.allclose(proj_p @ proj_p, proj_p, atol=1e-12)


@pytest.mark.parametrize("function", [discord_numeric, optimal_measurement, classical_correlations])
def test_one_sided_measures_reject_an_unknown_side(bell_state, function):
    with pytest.raises(ValueError, match="^measured_side must be 'S' or 'A', got 'B'$"):
        function(bell_state, "B")


def test_optimizer_iteration_cap_raises(monkeypatch, random_density):
    # a random state, whose search settles but takes more than one step; a protocol
    # state's search starts on its optimal axis (a principal axis) and settles in one
    rho = random_density(4)
    discord_numeric(rho, "A")
    monkeypatch.setattr(correlations, "_MAX_STEPS", 1)
    with pytest.raises(DiscordOptimizationError, match="within 1 Newton steps"):
        discord_numeric(rho, "A")


def test_discord_numeric_is_deterministic():
    rho = rho_m_at(0.3, 0.7, 1.1)
    for side in ("A", "S"):
        (basis_1, gain_1), (basis_2, gain_2) = (optimal_measurement(rho, side) for _ in range(2))
        assert basis_1 == basis_2
        assert gain_1.hex() == gain_2.hex()
        assert discord_numeric(rho, side).hex() == discord_numeric(rho, side).hex()


def test_discord_numeric_matches_closed_form_on_standard_grid():
    for params in standard_grid(5):
        rho = run_protocol(params).rho_m
        closed = discord_analytic(params.eps_s, params.phi)
        for side in ("A", "S"):
            assert abs(discord_numeric(rho, side) - closed) <= 1e-12, (params, side)


@pytest.mark.parametrize("eps_s,eps_a", [
    (0.0, 0.0), (0.0, 0.6), (0.5, 0.5), (0.9, 0.9), (0.4, 1.0 - 1e-9), (0.0, 1.0 - 1e-9),
    # at phi = pi/2 the conditional entropy is flat along a ring of axes
    (0.7363636363636363, 0.7363636363636363), (0.8181818181818181, 0.8181818181818181),
])
@pytest.mark.parametrize("phi", [0.0, 0.6, HALF_PI])
def test_discord_numeric_matches_closed_form_at_domain_edges(eps_s, eps_a, phi):
    rho = rho_m_at(eps_s, eps_a, phi)
    closed = discord_analytic(eps_s, phi)
    for side in ("A", "S"):
        assert abs(discord_numeric(rho, side) - closed) <= 1e-12


def test_scan_objective_agrees_with_projector_route(random_density, rng):
    # the vectorized Bloch-space seeding and the definitional projector
    # objective are the same function
    rho = random_density(4)
    for _ in range(6):
        polar = rng.uniform(0, math.pi)
        azimuth = rng.uniform(0, 2 * math.pi)
        basis = MeasurementBasis(polar, azimuth)
        axis = basis.axis()[None, :]
        for side in ("S", "A"):
            a, b, t = bloch_components(rho)
            local, other, m = (b, a, t.T) if side == "A" else (a, b, t)
            fast = correlations._conditional_entropy_scan(
                local[None], other[None], m[None], axis)[0, 0]
            exact = projector_oracle.conditional_entropy(rho, side, basis)
            assert abs(fast - exact) <= 1e-11


def _seed_axes():
    # the search's seed: the upper hemisphere of the 64 x 32 grid, in its order, with
    # one axis, (0, 0, 1), of its polar-0 row of 32 copies of the pole
    grid = np.meshgrid(np.linspace(0.0, math.pi, 64)[:32],
                       np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False), indexing="ij")
    axes = correlations._axes(*grid).reshape(-1, 3)
    return np.concatenate([axes[:1], axes[32:]])


def _kernel_rows(states):
    """(local, other, m) of every state measured on A, then on S, as one stack."""
    a, b, t = correlations._bloch_components(np.array(states))
    return (np.concatenate([b, a]), np.concatenate([a, b]),
            np.concatenate([t.transpose(0, 2, 1), t]))


def _kernel_matches_reference(local, other, m, axes, rows_per_call):
    """Both kernels on the same calls of at most ``rows_per_call`` rows, by their bytes."""
    for lo in range(0, len(local), rows_per_call):
        part = slice(lo, lo + rows_per_call)
        args = local[part], other[part], m[part], axes if axes.ndim == 2 else axes[part]
        fast = correlations._conditional_entropy_scan(*args)
        frozen = scan_reference.conditional_entropy_scan(*args)
        assert fast.shape == frozen.shape and fast.tobytes() == frozen.tobytes(), lo


def _random_kernel_states(rng):
    """64 states: 12 of each Ginibre rank 1 to 4 (rank 1 is pure), 12 random pure
    products and the 4 basis products |s a>, whose Bloch vectors lie on the seed's
    polar axis."""
    def ket(dim):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return v / np.linalg.norm(v)

    states = []
    for rank in (1, 2, 3, 4):
        for _ in range(12):
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            states.append(g @ g.conj().T / np.trace(g @ g.conj().T).real)
    kets = [np.kron(ket(2), ket(2)) for _ in range(12)] + list(np.eye(4, dtype=complex))
    return states + [np.outer(v, v.conj()) for v in kets]


def test_scan_kernel_equals_the_frozen_kernel_bit_for_bit():
    seed = _seed_axes()
    # both sides of standard_grid(12), four rows per call as the seed scan runs
    grid = [run_protocol(p).rho_m for p in standard_grid(12)]
    _kernel_matches_reference(*_kernel_rows(grid), seed, correlations._SCAN_BUDGET // len(seed))
    # one axis per row, as the Newton steps rescore them; a row whose measured side
    # is pure takes its Bloch vector, where one outcome's probability is a rounding residue
    rng = np.random.default_rng(20261018)
    random = _random_kernel_states(rng)
    for states in (grid, random):
        local, other, m = _kernel_rows(states)
        axes = rng.normal(size=(len(local), 1, 3))
        pure = np.linalg.norm(local, axis=-1) > 1.0 - 1e-9
        axes[pure, 0] = local[pure]
        _kernel_matches_reference(local, other, m, axes / np.linalg.norm(axes, axis=-1, keepdims=True),
                                  correlations._SCAN_BUDGET)
    # pure and pure-product states against the seed: dead outcomes and zero entropy terms
    local, other, m = _kernel_rows(random)
    _kernel_matches_reference(local, other, m, seed, 4)
    _, live, q = scan_reference.outcomes(local, other, m, seed)
    assert (~live).any() and live.any()
    assert (q[:, live] <= closed_forms.ENTROPY_CUTOFF).any()


@pytest.fixture(scope="module")
def search_rows():
    """(state, side) rows of 64 random states and the standard_grid(4) rho_m, with
    the result of each row's one-row search."""
    rng = np.random.default_rng(20261018)
    states = []
    for _ in range(64):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        states.append(g @ g.conj().T / np.trace(g @ g.conj().T).real)
    states += [run_protocol(p).rho_m for p in standard_grid(4)]
    blochs = tuple(np.concatenate([c, c]) for c in correlations._bloch_components(np.array(states)))
    sides = ["A"] * len(states) + ["S"] * len(states)
    return blochs, sides, _one_row_searches(blochs, sides)


def _one_row_searches(blochs, sides):
    return [correlations._optimal_measurements(tuple(c[i:i + 1] for c in blochs), [s])[0]
            for i, s in enumerate(sides)]


# 4096 is the default budget; 1000 scores one seed row, 333 rows of principal
# axes and 1000 Newton rows per call, 300 one seed row, 100 principal rows and
# 300 Newton rows, so chunks end mid-stack.
@pytest.mark.parametrize("budget", [4096, 1000, 300])
def test_stacked_search_rows_equal_one_row_searches(search_rows, budget, monkeypatch):
    blochs, sides, alone = search_rows
    monkeypatch.setattr(correlations, "_SCAN_BUDGET", budget)
    stacked = correlations._optimal_measurements(blochs, sides)
    assert len(stacked) == len(alone) == 256
    for row, one in zip(stacked, alone):
        assert [v.hex() for v in row] == [v.hex() for v in one]


def test_stacked_search_rows_equal_one_row_searches_when_every_row_backtracks(search_rows, monkeypatch):
    # every Newton turn 1e4 times too long: each row halves its step until the
    # entropy does not rise, so rows leave the backtracking loop at different halvings
    real, newton_calls = correlations._newton_steps, []

    def overshooting(*args):
        unit, turn, slope = real(*args)
        newton_calls.append(None)
        return unit, turn * 1e4, slope

    monkeypatch.setattr(correlations, "_newton_steps", overshooting)
    blochs, sides, _ = search_rows
    alone = _one_row_searches(blochs, sides)
    calls, newton_calls[:] = _record_kernel_calls(monkeypatch), []
    stacked = correlations._optimal_measurements(blochs, sides)
    assert len(stacked) == len(alone) == 256
    for row, one in zip(stacked, alone):
        assert [v.hex() for v in row] == [v.hex() for v in one]
    # far more one-axis rescoring calls than Newton steps: the rows backtracked
    assert sum(k == 1 for _, k in calls) > 10 * len(newton_calls)


def test_refined_axes_score_no_higher_than_a_dense_scan_or_their_seed(search_rows):
    # the 64 random states, both sides, against an independent 181 x 360 scan
    # of the whole sphere and against the best axis of the seed hemisphere
    blochs, sides, alone = search_rows
    dense = correlations._axes(*np.meshgrid(np.linspace(0.0, math.pi, 181),
                                            np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)))
    seed = _seed_axes()
    for row in [*range(64), *range(128, 192)]:
        a, b, t = (c[row] for c in blochs)
        local, other, m = (b, a, t.T) if sides[row] == "A" else (a, b, t)
        polar, azimuth, _ = alone[row]

        def lowest(axes):
            return correlations._conditional_entropy_scan(
                local[None], other[None], m[None], axes.reshape(-1, 3)).min()

        refined = lowest(correlations._axes(np.array(polar), np.array(azimuth)))
        assert refined <= lowest(dense) + 1e-15, row
        assert refined <= lowest(seed), row


def test_the_closed_form_discord_axes_are_stationary():
    # x for side A, the register's measurement axis (sin phi, 0, cos phi) for side S: the
    # Riemannian gradient of the conditional entropy vanishes there.  Necessary, not sufficient.
    points = standard_grid(12) + [
        ProtocolParams(*p) for p in [(0.0, 0.5, 0.7), (0.4, 0.4, 0.9), (0.3, 1.0 - 1e-9, 1.0),
                                     (0.0, 1.0 - 1e-9, 0.4), (0.5, 0.8, 0.0), (0.5, 0.8, HALF_PI),
                                     (0.9, 1.0 - 1e-9, HALF_PI), (0.6, 0.6, HALF_PI)]]
    a, b, t = correlations._bloch_components(np.array([run_protocol(p).rho_m for p in points]))
    phi = np.array([p.phi for p in points])
    zero = np.zeros_like(phi)
    x, measured = np.array([zero + 1.0, zero, zero]), np.array([np.sin(phi), zero, np.cos(phi)])
    _, _, slope_a = correlations._newton_steps(b.T, a.T, t.transpose(2, 1, 0), x)
    _, _, slope_s = correlations._newton_steps(a.T, b.T, t.transpose(1, 2, 0), measured)
    assert max(slope_a.max(), slope_s.max()) <= 1e-12


def _record_kernel_calls(monkeypatch):
    """(rows, axes per row) of every kernel call, recorded from now on."""
    calls = []
    real = correlations._conditional_entropy_scan

    def recorded(local, other, m, axes):
        calls.append((len(local), axes.shape[-2]))
        return real(local, other, m, axes)

    monkeypatch.setattr(correlations, "_conditional_entropy_scan", recorded)
    return calls


def test_kernel_calls_stay_within_the_memory_budget(monkeypatch):
    calls = _record_kernel_calls(monkeypatch)
    states = np.array([rho_m_at(0.1 * k, 0.9, 0.3 * k) for k in range(1, 6)] * 2)
    correlations._optimal_measurements(correlations._bloch_components(states), ["A"] * 5 + ["S"] * 5)
    seed_axes = 31 * 32 + 1  # the upper hemisphere of the 64 x 32 seed grid, one pole axis
    assert calls[0][1] == seed_axes
    assert correlations._seed().tobytes() == _seed_axes().tobytes()
    assert len(np.unique(_seed_axes(), axis=0)) == seed_axes
    assert all(r * k <= 4096 for r, k in calls)
    assert sum(r for r, k in calls if k == seed_axes) == 10  # every row scanned its seed once


# ---------------------------------------------------------------------------
# discord, closed form
# ---------------------------------------------------------------------------

def test_discord_analytic_zero_at_energy_basis_measurement():
    for eps in (0.0, 0.3, 0.8):
        assert abs(discord_analytic(eps, 0.0)) <= 1e-15


def test_discord_analytic_frozen_values():
    for phi, expected in DISCORD_BY_PHI.items():
        assert abs(discord_analytic(0.4, phi) - expected) <= 1e-12
    # x-measurement value equals ln2 minus the thermal register entropy
    assert abs(discord_analytic(0.4, HALF_PI) - (LN2 - 0.6108643020548935)) <= 1e-12


@pytest.mark.parametrize("eps_s", [1 - 1e-7, 1 - 1e-9, 1 - 1e-12])
@pytest.mark.parametrize("phi", [0.0, 0.7, HALF_PI])
def test_discord_closed_forms_match_mpmath_near_unit_bias(eps_s, phi):
    # 1 - eps_s^2 cancels here; the entropy gap must keep its digits
    def entropy(e):
        return -sum(q * mpmath.log(q) for q in ((1 + e) / 2, (1 - e) / 2) if q > 0)

    with mpmath.workdps(50):
        x = mpmath.mpf(eps_s) * mpmath.cos(mpmath.mpf(phi))
        exact = float(entropy(x) - entropy(mpmath.mpf(eps_s)))
    assert abs(discord_analytic(eps_s, phi) - exact) <= 1e-12


def test_discord_analytic_ignores_ancilla_bias_by_signature():
    assert "eps_a" not in inspect.signature(discord_analytic).parameters


def test_discord_analytic_monotone_in_phi():
    for eps in (0.2, 0.5, 0.8):
        values = [discord_analytic(eps, float(phi))
                  for phi in np.linspace(0.0, HALF_PI, 40)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))


def test_discord_analytic_domain_errors():
    with pytest.raises(ValueError):
        discord_analytic(1.0, 0.5)
    with pytest.raises(ValueError):
        discord_analytic(0.5, 2.0)


# ---------------------------------------------------------------------------
# classical correlations and threshold
# ---------------------------------------------------------------------------

def test_classical_correlations_product_and_bell(random_density, bell_state):
    rho = np.kron(random_density(2), random_density(2))
    assert abs(classical_correlations(rho, "A")) <= 1e-9
    assert abs(classical_correlations(bell_state, "A") - LN2) <= 1e-6


def test_classical_correlations_consistency():
    rho = rho_m_at(0.4, 0.8, math.pi / 4)
    total = mutual_information(rho)
    delta = discord_numeric(rho, "A")
    assert abs(classical_correlations(rho, "A") - (total - delta)) <= 1e-9


def test_discord_threshold_frozen_value():
    assert abs(discord_threshold(0.4) - DELTA_MIN_04) <= 1e-12
    assert abs(discord_threshold(0.4) - 1.35e-2) <= 5e-4


def test_discord_threshold_limits_and_monotonicity():
    assert discord_threshold(1e-6) <= 1e-9
    values = [discord_threshold(float(e)) for e in np.linspace(0.05, 0.9, 18)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_discord_threshold_domain():
    with pytest.raises(ValueError):
        discord_threshold(0.0)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_correlation_report_full():
    params = ProtocolParams(0.4, 0.8, math.pi / 4)
    report = correlation_report(params)
    assert abs(report.mutual_info - MI_QUARTER_POINT) <= 1e-10
    assert abs(report.discord_a - report.discord_analytic) <= 1e-6
    assert abs(report.discord_a - report.discord_s) <= 1e-6
    assert abs(report.classical_a - (report.mutual_info - report.discord_a)) <= 1e-12
    assert 0.0 <= report.concurrence <= 1.0
    assert abs(report.eof - eof_from_concurrence(report.concurrence)) <= 1e-12


def test_correlation_report_without_numeric_discord():
    report = correlation_report(ProtocolParams(0.4, 0.8, 0.9), numeric_discord=False)
    assert report.discord_a is None and report.discord_s is None
    assert report.classical_a is None
    assert report.discord_analytic > 0.0


def test_entangled_states_are_discordant():
    for phi in (0.5, 1.0, HALF_PI):
        rho = rho_m_at(0.4, 0.8, phi)
        if concurrence(rho) > 1e-6:
            assert discord_numeric(rho, "A") > 1e-9


def test_bloch_components_of_product_state():
    rho = np.kron(np.diag([0.3, 0.7]), np.diag([0.1, 0.9])).astype(complex)
    a, b, t = bloch_components(rho)
    assert np.allclose(a, [0, 0, -0.4], atol=1e-12)
    assert np.allclose(b, [0, 0, -0.8], atol=1e-12)
    assert np.allclose(t, np.outer(a, b), atol=1e-12)


def test_bloch_components_of_a_stack_are_the_per_state_calls_bit_for_bit():
    # the standard_grid(12) rho_m and 500 random states, one stacked call against one call each
    rng = np.random.default_rng(20261019)
    g = rng.normal(size=(500, 4, 4)) + 1j * rng.normal(size=(500, 4, 4))
    random = g @ g.conj().transpose(0, 2, 1)
    random /= np.trace(random, axis1=1, axis2=2).real[:, None, None]
    grid = np.array([run_protocol(p).rho_m for p in standard_grid(12)])
    for states in (grid, random):
        stacked = correlations._bloch_components(states)
        assert [c.shape for c in stacked] == [(len(states), 3), (len(states), 3), (len(states), 3, 3)]
        for i, rho in enumerate(states):
            for row, one in zip(stacked, correlations._bloch_components(rho)):
                assert row[i].tobytes() == one.tobytes(), i
