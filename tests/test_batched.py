"""The stacked (n, 4, 4) kernels behind landscapes, and the closed-form
separability boundary against the per-angle matrix route.

Every stacked value must equal its single-point call bit for bit (floats
are compared by ``repr``, which tells every distinct double apart), and a
stack with one bad matrix must raise the single-matrix message.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfcool import correlations, densmat, protocol, sweep, verify
from qfcool.correlations import concurrence, correlation_report, mutual_information
from qfcool.protocol import ProtocolParams, run_protocol
from qfcool.sweep import SeparabilityBoundary, SweepGrid, characteristic_curve, landscape
from qfcool.thermo import figures_of_merit

HALF_PI = math.pi / 2
TOP = 1.0 - sweep.EPS_A_CLAMP


def edge_grid(eps_s, temperature=0.8):
    """17 x 31 = 527 points (three chunks) with the domain edges on the grid."""
    return SweepGrid(eps_s, tuple(np.linspace(0.0, HALF_PI, 17)),
                     tuple(np.linspace(eps_s, TOP, 31)), temperature)


def stacked_reports(points):
    """The ``CorrelationReport``s of ``points`` from one ``(n, 4, 4)`` stack of post-measurement
    states, as a landscape chunk and verify's discord subgrid build them."""
    rho_m = protocol._post_measurement_states([p.eps_s for p in points], [p.eps_a for p in points],
                                              [p.phi for p in points])
    return correlations._reports([rho_m], [correlations.discord_analytic(p.eps_s, p.phi) for p in points])


def phi_stack(eps_s, eps_a, phis):
    n = len(phis)
    return protocol._post_measurement_states([eps_s] * n, [eps_a] * n, list(phis))


# ---------------------------------------------------------------------------
# landscapes and curves equal their single-point calls
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps_s", [0.0, 0.37])
def test_landscape_equals_single_point_reports(eps_s):
    grid = edge_grid(eps_s)
    assert (grid.phi_values[0], grid.phi_values[-1]) == (0.0, HALF_PI)
    assert (grid.eps_a_values[0], grid.eps_a_values[-1]) == (eps_s, TOP)
    result = landscape(grid, {"thermo", "correlations"})
    assert len(result.points) == 527 > 2 * sweep.CHUNK_POINTS
    for pt in result.points:
        params = ProtocolParams(eps_s, pt.eps_a, pt.phi, grid.temperature)
        assert repr(pt.thermo) == repr(figures_of_merit(params))
        single = correlation_report(params, numeric_discord=False)
        assert pt.correlations == single
        assert repr(pt.correlations) == repr(single)


def test_correlation_reports_equal_single_point_reports_across_biases_and_temperatures():
    # one stack mixing eps_s and T (a landscape never mixes eps_s), edges included
    edges = [ProtocolParams(*p) for p in [
        (0.0, 0.0, 0.0, 1.0), (0.0, TOP, HALF_PI, 1e-300), (0.4, 0.4, HALF_PI, 1e300),
        (0.999, TOP, 1e-9, 0.5), (1e-300, 0.5, 0.6, 3.0), (0.3, 0.85, HALF_PI - 1e-9, 7.0)]]
    points = edges + [ProtocolParams(p.eps_s, p.eps_a, p.phi, 0.1 + i)
                      for i, p in enumerate(verify.standard_grid(4))]
    reports = stacked_reports(points)
    assert len(reports) == len(points)
    for report, params in zip(reports, points):
        assert repr(report) == repr(correlation_report(params, numeric_discord=False))


def test_correlation_reports_of_no_points_is_empty():
    assert stacked_reports([]) == []


def test_characteristic_curve_equals_single_point_reports():
    curve = characteristic_curve(0.25, 1.1, 300, temperature=2.0, include_correlations=True)
    for pt in curve:
        params = ProtocolParams(0.25, pt.eps_a, 1.1, 2.0)
        assert repr(pt.correlations) == repr(correlation_report(params, numeric_discord=False))
        assert repr(pt.thermo) == repr(figures_of_merit(params))


EDGE_EPS_S = st.sampled_from([0.0, 1e-300, 1e-9, 0.3, 0.77, 0.999])
EDGE_PHI = st.sampled_from([0.0, 1e-9, 0.6, HALF_PI - 1e-9, HALF_PI])


@settings(max_examples=60, deadline=None)
@given(eps_s=st.one_of(EDGE_EPS_S, st.floats(0.0, 0.999)),
       fractions=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                          min_size=1, max_size=4, unique=True),
       phis=st.lists(st.one_of(EDGE_PHI, st.floats(0.0, HALF_PI)),
                     min_size=1, max_size=4, unique=True),
       log10_t=st.floats(-300.0, 300.0))
@example(eps_s=0.0, fractions=[0.0, 1.0], phis=[0.0, HALF_PI], log10_t=-300.0)
@example(eps_s=0.4, fractions=[0.0, 0.5, 1.0], phis=[0.0, 0.6, HALF_PI], log10_t=300.0)
def test_landscape_points_equal_single_point_calls_over_the_domain(eps_s, fractions, phis,
                                                                   log10_t):
    # eps_a from eps_s (fraction 0) to the clamp 1 - 1e-9 (fraction 1), T log-uniform
    eps_a_values = sorted({eps_s + (TOP - eps_s) * f for f in fractions})
    temperature = 10.0 ** log10_t
    grid = SweepGrid(eps_s, tuple(sorted(phis)), tuple(eps_a_values), temperature)
    result = landscape(grid, {"thermo", "correlations"})
    assert len(result.points) == len(phis) * len(eps_a_values)
    for pt in result.points:
        params = ProtocolParams(eps_s, pt.eps_a, pt.phi, temperature)
        assert repr(pt.thermo) == repr(figures_of_merit(params))
        assert repr(pt.correlations) == repr(correlation_report(params, numeric_discord=False))


# ---------------------------------------------------------------------------
# the closed-form separability boundary against the matrix route
# ---------------------------------------------------------------------------

def reference_boundary(eps_s, eps_a, tol=1e-6, scan_points=181):
    """The per-angle algorithm: Wootters concurrence of every scanned angle, scored as one
    stack, up to the first entangled one, then bisection of that bracket."""
    def entangled(phi):
        return concurrence(run_protocol(ProtocolParams(eps_s, eps_a, phi)).rho_m) > 1e-12

    phis = np.linspace(0.0, HALF_PI, scan_points).tolist()
    hits = np.flatnonzero(correlations._concurrence(phi_stack(eps_s, eps_a, phis)) > 1e-12).tolist()
    first = hits[0] if hits else None
    if first == 0:
        return SeparabilityBoundary(phi=0.0, status="always_entangled")
    if first is None:
        return SeparabilityBoundary(phi=HALF_PI, status="never_entangled")
    a, b = phis[first - 1], phis[first]
    while b - a > tol:
        mid = 0.5 * (a + b)
        if entangled(mid):
            b = mid
        else:
            a = mid
    return SeparabilityBoundary(phi=0.5 * (a + b), status="interior")


def assert_boundary_matches_reference(eps_s, eps_a):
    result = sweep.separability_boundary(eps_s, eps_a)
    expected = reference_boundary(eps_s, eps_a)
    assert result.status == expected.status, (eps_s, eps_a)
    assert abs(result.phi - expected.phi) <= 2e-6, (eps_s, eps_a)


@pytest.mark.parametrize("eps_s, eps_a", [
    (0.4, 0.8), (0.4, 0.9), (0.0, 0.5), (0.05, TOP), (0.7, 0.75), (0.2, 0.6),
])
def test_separability_boundary_equals_per_angle_scan(eps_s, eps_a):
    assert_boundary_matches_reference(eps_s, eps_a)


def test_separability_boundary_equals_per_angle_scan_on_seeded_pairs():
    rng = np.random.default_rng(6)
    eps_s = rng.uniform(0.0, 1.0, 300)
    eps_a = eps_s + (1.0 - eps_s) * rng.uniform(0.0, 1.0, 300)
    checked = 0
    for es, ea in zip(eps_s.tolist(), eps_a.tolist()):
        # at the edge the oracle's 1e-12 concurrence floor decides the verdict
        if es < ea < 1.0 and abs(ea - (1.0 - es) / (1.0 + es)) > 1e-9:
            assert_boundary_matches_reference(es, ea)
            checked += 1
    assert checked >= 290


def closed_form_concurrence(eps_s, eps_a, phi):
    """X-state concurrence of rho_m (Wootters 1998; Yu and Eberly 2007)."""
    return max(0.0, ((1.0 + eps_a) * eps_s * math.sin(phi)
                     - (1.0 - eps_a) * math.sqrt(1.0 - (eps_s * math.cos(phi)) ** 2)) / 2.0)


def test_closed_form_concurrence_matches_wootters_route():
    from qfcool.verify import standard_grid
    edges = [ProtocolParams(es, ea, phi)
             for es in (0.0, 0.3, 0.9, 0.9999) for ea in (es, 0.5, 0.99, 0.9999, TOP)
             for phi in (0.0, 0.7, HALF_PI) if es <= ea]
    points = [p for p in standard_grid(6) + edges if 1.0 - p.eps_a > 1e-4]
    assert len(points) > 216
    for p in points:
        matrix = concurrence(run_protocol(p).rho_m)
        assert abs(closed_form_concurrence(p.eps_s, p.eps_a, p.phi) - matrix) <= 1e-10, p


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13: the Wootters route's two square roots"
                   " lose about 1e-8 on the nearly rank-deficient states of the clamp column")
def test_landscape_concurrence_on_the_clamp_column_is_the_closed_form():
    # sweep --landscape --n-phi 25 at its defaults: eps_s = 0.4, 101 eps_a up to 1 - EPS_A_CLAMP
    eps_a = tuple(0.4 + (TOP - 0.4) * i / 100 for i in range(101))
    result = landscape(SweepGrid(0.4, tuple(np.linspace(0.0, HALF_PI, 25).tolist()), eps_a),
                       {"thermo", "correlations"})
    clamp = [p for p in result.points if p.eps_a == TOP]
    assert len(clamp) == 25
    worst = max(abs(p.correlations.concurrence - closed_form_concurrence(0.4, p.eps_a, p.phi))
                for p in clamp)
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# kernels on stacks
# ---------------------------------------------------------------------------

def test_stacked_kernels_equal_single_state_calls():
    phis = np.linspace(0.0, HALF_PI, 181)
    stack = phi_stack(0.3, 0.85, phis.tolist())
    conc = correlations._concurrence(stack)
    mi = correlations._mutual_information(stack)
    for k, phi in enumerate(phis):
        rho = run_protocol(ProtocolParams(0.3, 0.85, float(phi))).rho_m
        assert stack[k].tobytes() == rho.tobytes()
        assert repr(float(conc[k])) == repr(concurrence(rho))
        assert repr(float(mi[k])) == repr(mutual_information(rho))


def test_stacked_kernels_on_random_states(random_density):
    stack = np.array([random_density(4) for _ in range(64)])
    roots = densmat._psd_sqrt(stack)
    conc = correlations._concurrence(stack)
    mi = correlations._mutual_information(stack)
    for k, rho in enumerate(stack):
        assert roots[k].tobytes() == densmat._psd_sqrt(rho).tobytes()
        assert repr(float(conc[k])) == repr(concurrence(rho))
        assert repr(float(mi[k])) == repr(mutual_information(rho))


# ---------------------------------------------------------------------------
# the separability certificate leaves the Wootters route's bits
# ---------------------------------------------------------------------------
# _concurrence writes +0.0 for the states whose partial-transpose determinant
# clears the margin and sends the rest to _wootters as one stack; it must
# equal _wootters on the whole stack bit for bit, on any BLAS kernel.

def partial_transpose(a):
    """Each matrix of a stack ``(..., 4, 4)`` transposed on the ancilla."""
    return a.reshape(a.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(a.shape)


_SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
# Not a state: its eigenvalues are -0.125 and 0.375 three times.  Its partial transpose, the
# Werner state at p = 1/2, has determinant 1.22e-3, so the separability certificate clears it,
# and only the Cholesky guard sends it to the square root that raises.
WERNER_HALF_TRANSPOSED = partial_transpose(0.5 * np.outer(_SINGLET, _SINGLET) + 0.125 * np.eye(4))


def cleared(stack):
    return np.linalg.det(partial_transpose(stack)).real > correlations._SEPARABLE_DET


def _local_unitaries(rng, n):
    """n seeded products U_S x U_A of 2x2 unitaries (QR with the phase fix)."""
    g = rng.normal(size=(2, n, 2, 2)) + 1j * rng.normal(size=(2, n, 2, 2))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    u = q * (d / np.abs(d))[..., None, :]
    return densmat._tensor(u[0], u[1])


def ginibre_states():
    """Seeded Ginibre states of ranks 1 to 4, each mixed with p I/4 for p in {0, 0.3, 0.6, 0.8}."""
    rng, stacks = np.random.default_rng(6101), []
    for rank in (1, 2, 3, 4):
        g = rng.normal(size=(800, 4, rank)) + 1j * rng.normal(size=(800, 4, rank))
        rho = g @ densmat._dagger(g)
        rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
        stacks += [(1.0 - p) * part + 0.25 * p * np.eye(4) for p, part in zip((0.0, 0.3, 0.6, 0.8),
                                                                            np.split(rho, 4))]
    return np.concatenate(stacks)


def bell_mixtures():
    """p |Phi+><Phi+| + (1 - p) sigma, sigma a seeded mixture of four product states, at p within a
    factor 1 -+ 10^-k (k from 1 to 9) of the PPT boundary p*, under seeded local unitaries."""
    rng, n = np.random.default_rng(6102), 2000
    kets = rng.normal(size=(2, n, 4, 2)) + 1j * rng.normal(size=(2, n, 4, 2))
    kets /= np.linalg.norm(kets, axis=-1, keepdims=True)
    products = np.einsum("kni,knj->knij", kets[0], kets[1]).reshape(n, 4, 4)
    sigma = np.einsum("nk,nki,nkj->nij", rng.dirichlet(np.ones(4), n), products, products.conj())
    bell = np.zeros((4, 4))
    bell[::3, ::3] = 0.5

    def mix(p):
        return p[:, None, None] * bell + (1.0 - p)[:, None, None] * sigma
    low, high = np.zeros(n), np.ones(n)  # the least partial-transpose eigenvalue is concave in p
    for _ in range(60):
        mid = 0.5 * (low + high)
        inside = np.linalg.eigvalsh(partial_transpose(mix(mid)))[:, 0] >= 0.0
        low, high = np.where(inside, mid, low), np.where(inside, high, mid)
    p = low * (1.0 + rng.choice([-1.0, 1.0], n) * 10.0 ** -rng.uniform(1.0, 9.0, n))
    u = _local_unitaries(rng, n)
    return u @ mix(p) @ densmat._dagger(u)


def landscape_states(eps_s):
    """The rho_m stack of the 25 x 101 landscape at eps_s, with eps_a from eps_s to the clamp."""
    phi, eps_a = np.meshgrid(np.linspace(0.0, HALF_PI, 25), np.linspace(eps_s, TOP, 101), indexing="ij")
    return protocol._post_measurement_states([eps_s] * phi.size, eps_a.ravel().tolist(), phi.ravel().tolist())


@pytest.mark.parametrize("states", [ginibre_states, bell_mixtures, lambda: landscape_states(0.05),
                                    lambda: landscape_states(0.4)],
                         ids=["ginibre", "bell_mixtures", "landscape-0.05", "landscape-0.4"])
def test_certified_concurrence_is_the_wootters_route_bit_for_bit(states):
    stack = states()
    assert 0 < cleared(stack).sum() < len(stack)
    assert correlations._concurrence(stack).tobytes() == correlations._wootters(stack).tobytes()


@pytest.mark.parametrize("eps_s", [0.05, 0.4])
def test_landscape_eof_is_the_eof_of_its_concurrence_bit_for_bit(eps_s):
    # a landscape maps only the positive concurrences and stores +0.0 for the others
    grid = SweepGrid(eps_s, tuple(np.linspace(0.0, HALF_PI, 25)), tuple(np.linspace(eps_s, TOP, 101)))
    points = [p.correlations for p in landscape(grid, {"thermo", "correlations"}).points]
    assert 0 < sum(k.concurrence == 0.0 for k in points) < len(points) == 2525
    assert ([k.eof.hex() for k in points]
            == [correlations.eof_from_concurrence(k.concurrence).hex() for k in points])
    assert all(math.copysign(1.0, k.eof) == 1.0 for k in points)


def noisy_product(noise):
    """A product pure state mixed with ``noise`` of white noise."""
    ket = np.kron([0.6, 0.8j], [1.0, 1.0]) / math.sqrt(2.0)
    return (1.0 - noise) * np.outer(ket, ket.conj()) + 0.25 * noise * np.eye(4)


@pytest.mark.parametrize("rho", [
    # the eps_a clamp at eps_s = 0.36, phi = 0: separable, det(PT) = 1.2e-20, Wootters 5.6e-17
    protocol._post_measurement_states((0.36,), (TOP,), (0.0,))[0],
    # det(PT) = 1.5e-44, Wootters 1.5e-9
    noisy_product(1e-14),
], ids=["clamp", "noisy-product"])
def test_a_positive_determinant_inside_the_margin_keeps_the_wootters_value(rho):
    # a margin of 0 would clear these states, which the Wootters route reads positive
    assert 0.0 < np.linalg.det(partial_transpose(rho)).real <= correlations._SEPARABLE_DET
    value = correlations._wootters(rho)
    assert value > 0.0
    assert correlations._concurrence(rho).tobytes() == value.tobytes()


def test_the_certificate_clears_the_guard_case():
    assert cleared(WERNER_HALF_TRANSPOSED)


def test_spectrum_entropy_of_a_stack_matches_the_masked_sum(rng):
    spectra = []
    for kept in (1, 2, 3, 4, 4, 4):
        for _ in range(20):
            w = np.concatenate([rng.dirichlet(np.ones(kept)),
                                rng.choice([0.0, 1e-16, -1e-17], size=4 - kept)])
            spectra.append(np.sort(w))
    stack = densmat._spectrum_entropy(np.array(spectra))
    for w, value in zip(spectra, stack):
        live = w[w > densmat.ENTROPY_CUTOFF]
        assert repr(float(value)) == repr(float(-(live * np.log(live)).sum()))


@pytest.mark.parametrize("position, bad, least", [
    *(pytest.param(k, np.diag([0.75, 0.5, -0.25, 0.0]), r"-2\.500e-01", id=str(k)) for k in (0, 4, 9)),
    *(pytest.param(k, WERNER_HALF_TRANSPOSED, r"-1\.250e-01", id=f"{k}-werner-transposed") for k in (0, 4, 9)),
])
def test_stack_with_one_invalid_matrix_raises(position, bad, least):
    stack = phi_stack(0.4, 0.8, np.linspace(0.0, HALF_PI, 10).tolist())
    stack[position] = bad
    message = rf"psd_sqrt expects a PSD matrix \(min eigenvalue {least}\)"
    with pytest.raises(ValueError, match=message):
        densmat._psd_sqrt(stack)
    with pytest.raises(ValueError, match=message):
        correlations._concurrence(stack)


# ---------------------------------------------------------------------------
# diagonal operators applied by scaling, and partial traces by slices, bit for bit
# ---------------------------------------------------------------------------
# A product with a diagonal factor has one rounded product per entry, the
# other terms being exact zeros, so scaling rows or columns gives the matrix
# product's bytes, signed zeros included, whatever the BLAS kernel's order
# or FMA use.  A partial trace adds two terms to np.trace's +0 start.  A
# numpy or BLAS that breaks either argument must fail here.  The energies
# read the qubit marginals, H being local: they meet tr(H rho) within a few
# ulps, not bit for bit.

def _protocol_points(rng, temperature):
    """The domain's edges (eps_s = 0, eps_a = eps_s and at the clamp, phi = 0
    and pi/2) and seeded draws, at one temperature."""
    edges = [(es, ea, phi) for es in (0.0, 0.3, 0.9) for ea in (es, 0.5, 0.95, TOP)
             for phi in (0.0, 0.7, HALF_PI) if es <= ea]
    es = rng.uniform(0.0, 0.9, 64)
    draws = zip(es, rng.uniform(es, TOP), rng.uniform(0.0, HALF_PI, 64))
    return [ProtocolParams(*p, temperature) for p in edges + [tuple(map(float, d)) for d in draws]]


def _traced_out(a, keep):
    """The partial trace as np.trace takes it, over the traced-out pair of axes."""
    r = a.reshape(a.shape[:-2] + (2, 2, 2, 2))
    return np.trace(r, axis1=-3, axis2=-1) if keep == "S" else np.trace(r, axis1=-4, axis2=-2)


# (omega_s + omega_a) / 2 ulps of the marginal route's energies from tr(H rho); 1.3 seen
ENERGY_ULPS = 4


@pytest.mark.parametrize("temperature", [1e-300, 1.0, 1e300])
def test_marginal_energies_meet_the_trace_of_h_rho(rng, temperature):
    # each stage's register and ancilla energies, and their sum, against densmat._expectation
    # of the point's h_system, h_ancilla and hamiltonian, which energy_model builds at T
    from qfcool import thermo
    points = _protocol_points(rng, temperature)
    trace = protocol._run_protocols(*zip(*((p.eps_s, p.eps_a, p.phi) for p in points)))
    models = [thermo.energy_model(p) for p in points]
    half = 0.5 * np.array([[m.omega_s, m.omega_a] for m in models])
    bound = ENERGY_ULPS * np.finfo(float).eps * half.sum(axis=-1)  # 0 at eps_a = 0: exact there
    for stage in ("rho0", "rho_m", "rho_f"):
        e_s, e_a = thermo._energy(half, trace, stage)
        for field, name, energy in (("h_system", f"{stage}_s", e_s), ("h_ancilla", f"{stage}_a", e_a),
                                    ("hamiltonian", stage, e_s + e_a)):
            h = np.array([getattr(m, field) for m in models])
            assert (np.abs(energy - densmat._expectation(h, getattr(trace, name))) <= bound).all(), name


@pytest.mark.parametrize("temperature", [1e-300, 1.0, 1e300])
def test_scaled_and_sliced_kernels_keep_their_bytes_on_protocol_stacks(rng, temperature):
    points = _protocol_points(rng, temperature)
    trace = protocol._run_protocols(*zip(*((p.eps_s, p.eps_a, p.phi) for p in points)))
    u = protocol._measurement_unitaries([p.phi for p in points])
    assert trace.rho_m.tobytes() == (u @ trace.rho0 @ densmat._dagger(u)).tobytes()
    for name in ("rho0", "rho_m", "rho_f", "rho_reset"):
        for keep in "SA":
            assert (densmat._partial_trace(getattr(trace, name), keep).tobytes()
                    == _traced_out(getattr(trace, name), keep).tobytes()), (name, keep)


def test_scaled_and_sliced_kernels_keep_their_bytes_on_random_stacks(rng, random_density):
    n = 256
    states = np.array([random_density(4) for _ in range(n)])
    populations = rng.dirichlet(np.ones(4), size=n) * rng.choice([0.0, 1.0], size=(n, 4))
    rho0 = populations[:, :, None] * np.eye(4, dtype=complex)
    phi = rng.uniform(0.0, HALF_PI, n).tolist()
    u = protocol._measurement_unitaries(phi)
    assert protocol._measured(rho0, phi).tobytes() == (u @ rho0 @ densmat._dagger(u)).tobytes()
    # entries drawn with signed zeros, so that a pair of -0.0 meets np.trace's +0 start
    signed = (rng.choice([0.0, -0.0, 1.0, -2.5], size=(n, 4, 4))
              + 1j * rng.choice([0.0, -0.0, 1e-300, -1.0], size=(n, 4, 4)))
    for stack in (states, signed, signed[0]):
        for keep in "SA":
            assert densmat._partial_trace(stack, keep).tobytes() == _traced_out(stack, keep).tobytes()
