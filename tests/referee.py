"""50-digit mpmath forms of the working-point objectives.

Each form takes the double inputs at face value and works at 50 digits, so
a library value can be compared with the exact value of its own inputs.
The forms are written from the cycle's physics, not copied from
``closed_forms``: the entropy reduction is the drop of the register's
thermal entropy from bias ``eps_s`` to ``eps_a``, the reset heat is half the
ancilla gap times the bias the ancilla gave up, and the total work is that
heat minus the register's energy drop.  Energies are over ``T``.

The work of each unitary follows the register's and the ancilla's bias along
the z axis: a qubit of bias ``b`` whose gap gives bias ``eps`` has energy
``-atanh(eps) b`` over ``T``.  The threshold angle is where the
feedback work vanishes, the separability angle where the concurrence does,
and the mutual information is the marginals' entropies less those of the
initial product state, which the unitaries keep.
"""

import mpmath

DPS = 50


def _entropy(eps):
    """Entropy in nats of a qubit with populations (1 -+ eps) / 2."""
    return sum(-q * mpmath.log(q) for q in ((1 - eps) / 2, (1 + eps) / 2) if q > 0)


def _energies(eps_s, eps_a, phi):
    """(P, Q / T, delta E_S / T) at (eps_s, eps_a, phi), as mpf at the working
    precision; W / T is Q / T - delta E_S / T."""
    es, ea, s = mpmath.mpf(eps_s), mpmath.mpf(eps_a), mpmath.sin(mpmath.mpf(phi))
    p = _entropy(es) - _entropy(ea)
    q = mpmath.atanh(ea) * (ea - es * s)          # (omega_a / 2T) x bias given up
    de_s = mpmath.atanh(es) * (ea * s - es)       # (omega_s / 2T) x bias gained
    return p, q, de_s


def objective(name, eps_s, phi):
    """The objective ``name`` as a function of eps_a (chi divided by T)."""
    def f(eps_a):
        p, q, de_s = _energies(eps_s, eps_a, phi)
        w = q - de_s
        return {"cop": p / w, "eta": p / q, "chi": p * p / w}[name]
    return f


def central_difference(name, eps_s, phi, eps_a, h=mpmath.mpf("1e-25")):
    """(f(eps_a + h) - f(eps_a - h)) / 2h at 50 digits."""
    with mpmath.workdps(DPS):
        f, x = objective(name, eps_s, phi), mpmath.mpf(eps_a)
        return (f(x + h) - f(x - h)) / (2 * h)


def working_point(name, eps_s, phi, lo, hi):
    """The root of the objective's derivative in [lo, hi], at 50 digits.

    The derivative must change sign on the bracket; the root is refined by
    the Anderson-Bjorck bracketing solver, so it stays inside it.
    """
    with mpmath.workdps(DPS):
        d = lambda x: mpmath.diff(objective(name, eps_s, phi), x)
        a, b = mpmath.mpf(lo), mpmath.mpf(hi)
        if not d(a) > 0 > d(b):
            raise ValueError(f"no sign change of d{name}/d eps_a on [{lo!r}, {hi!r}]")
        return mpmath.findroot(d, (a, b), solver="anderson", tol=mpmath.mpf(10) ** -40)


def cycle(eps_s, eps_a, phi):
    """Every figure of merit over T.  P, Q and W come from ``_energies``; the work
    of each unitary from the (register, ancilla) z biases of the stages around
    it: thermal (eps_s, eps_a), measured (eps_s cos^2 phi, 0) and fed back
    (eps_a sin phi, eps_s sin phi)."""
    p, q, de_s = _energies(eps_s, eps_a, phi)
    w = q - de_s
    es, ea, phi = mpmath.mpf(eps_s), mpmath.mpf(eps_a), mpmath.mpf(phi)
    s, c = mpmath.sin(phi), mpmath.cos(phi)
    ts, ta = mpmath.atanh(es), mpmath.atanh(ea)

    def energy(register, ancilla):
        return -ts * register - ta * ancilla

    e0, e_m, e_f = energy(es, ea), energy(es * c * c, 0), energy(ea * s, es * s)
    return {"entropy_reduction": p, "work_measurement": e0 - e_m, "work_feedback": e_m - e_f,
            "heat_reset": q, "delta_e_system": de_s, "total_work": w,
            "cop": p / w, "eta": p / q, "chi": p * p / w}


def phi_crit(eps_s, eps_a):
    """The angle at which the feedback work ``y sin(phi) - a cos(phi)^2`` vanishes,
    a = eps_s atanh(eps_s), y = eps_a atanh(eps_s) + eps_s atanh(eps_a): the positive
    root of a s^2 + y s - a = 0, rationalised, since -y + sqrt(y^2 + 4 a^2) cancels
    even at 50 digits once y / a passes about 1e25.  At eps_s = 0, where a = y = 0,
    it is the limit 0."""
    es, ea = mpmath.mpf(eps_s), mpmath.mpf(eps_a)
    if es == 0:
        return es
    a, y = es * mpmath.atanh(es), ea * mpmath.atanh(es) + es * mpmath.atanh(ea)
    return mpmath.asin(2 * a / (y + mpmath.sqrt(y * y + 4 * a * a)))


def separability_angle(eps_s, eps_a):
    """The angle at which the concurrence of the measured state,
    ((1 + eps_a) eps_s sin phi - (1 - eps_a) sqrt(1 - eps_s^2 cos^2 phi)) / 2,
    vanishes; both terms squared, sin^2 phi is linear."""
    es, ea = mpmath.mpf(eps_s), mpmath.mpf(eps_a)
    outer, inner = ((1 + ea) * es) ** 2, ((1 - ea) * es) ** 2
    return mpmath.asin(mpmath.sqrt((1 - ea) ** 2 * (1 - es * es) / (outer - inner)))


def mutual_information(eps_s, eps_a, phi):
    """The marginals' entropies, at biases eps_s cos phi and eps_s eps_a cos phi,
    less the joint entropy S(eps_s) + S(eps_a) of the initial product state."""
    es, ea, c = mpmath.mpf(eps_s), mpmath.mpf(eps_a), mpmath.cos(mpmath.mpf(phi))
    return _entropy(es * c) + _entropy(es * ea * c) - _entropy(es) - _entropy(ea)


def measured_state(eps_s, eps_a, phi):
    """The post-measurement state U rho0 U^+ as a 4x4 mpmath matrix, basis |s a>, with
    rho0 = diag((1 - eps_s)(1 - eps_a), (1 - eps_s)(1 + eps_a), ...) / 4 (|0> is the
    sigma_z = +1 level) and U = (I - i (sin phi sigma_x + cos phi sigma_z) x sigma_y) / sqrt 2."""
    es, ea, phi = mpmath.mpf(eps_s), mpmath.mpf(eps_a), mpmath.mpf(phi)
    s, c = mpmath.sin(phi), mpmath.cos(phi)
    axis = mpmath.matrix([[c, s], [s, -c]])
    sigma_y = mpmath.matrix([[0, -1j], [1j, 0]])
    u = (mpmath.eye(4) - 1j * _kron(axis, sigma_y)) / mpmath.sqrt(2)
    rho0 = mpmath.diag([(1 + a * es) * (1 + b * ea) / 4 for a in (-1, 1) for b in (-1, 1)])
    return u * rho0 * u.transpose_conj()


def _marginal(rho, keep):
    """The register (``"S"``) or ancilla (``"A"``) marginal of a 4x4 mpmath state."""
    if keep == "S":
        return mpmath.matrix([[rho[2 * i, 2 * j] + rho[2 * i + 1, 2 * j + 1] for j in range(2)]
                              for i in range(2)])
    return mpmath.matrix([[rho[i, j] + rho[2 + i, 2 + j] for j in range(2)] for i in range(2)])


def _summary(rho):
    """Purity tr(rho^2), entropy from the eigenvalues and, for a qubit, Bloch vector tr(rho sigma)."""
    entropy = -sum(w * mpmath.log(w) for w in mpmath.eighe(rho, eigvals_only=True) if w > 0)
    summary = {"purity": _trace(rho * rho), "entropy": entropy}
    if rho.rows == 2:
        paulis = ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])
        summary["bloch"] = [_trace(mpmath.matrix(p) * rho) for p in paulis]
    return summary


def _trace(a):
    """The real part of tr(a)."""
    return mpmath.re(sum(a[i, i] for i in range(a.rows)))


def trace(eps_s, eps_a, phi):
    """``run``'s trace block from the cycle's states as mpmath matrices: rho0, the
    measured state, the fed-back state U_f rho_m U_f^+ with U_f the register rotation
    (I -+ i sigma_y) / sqrt 2 controlled on the ancilla's x basis, and the reset state
    (register marginal of rho_f) x rho0_a, with the qubit marginals under "marginals"."""
    es, ea = mpmath.mpf(eps_s), mpmath.mpf(eps_a)
    rho0 = mpmath.diag([(1 + a * es) * (1 + b * ea) / 4 for a in (-1, 1) for b in (-1, 1)])
    rho_m = measured_state(eps_s, eps_a, phi)
    eye, sigma_x, sigma_y = mpmath.eye(2), mpmath.matrix([[0, 1], [1, 0]]), mpmath.matrix([[0, -1j], [1j, 0]])
    u = sum((_kron((eye + sign * 1j * sigma_y) / mpmath.sqrt(2), (eye + sign * sigma_x) / 2)
             for sign in (1, -1)), mpmath.zeros(4))
    rho_f = u * rho_m * u.transpose_conj()
    states = {"rho0": rho0, "rho_m": rho_m, "rho_f": rho_f,
              "rho_reset": _kron(_marginal(rho_f, "S"), _marginal(rho0, "A"))}
    doc = {name: _summary(rho) for name, rho in states.items()}
    doc["marginals"] = {f"{name}_{side.lower()}": _summary(_marginal(states[name], side))
                        for name in ("rho0", "rho_m", "rho_f") for side in ("S", "A")}
    return doc


def _kron(a, b):
    return mpmath.matrix([[a[i // 2, j // 2] * b[i % 2, j % 2] for j in range(4)]
                          for i in range(4)])


def concurrence(rho):
    """Wootters concurrence of a two-qubit state: an mpmath matrix, or rows of doubles
    taken at face value.

    The lambda_i are the square roots of the eigenvalues of the Hermitian
    sqrt(rho) rho~ sqrt(rho), with rho~ = (sigma_y x sigma_y) rho* (sigma_y x sigma_y);
    they are those of rho rho~, which is similar to it.  Both spectra come from
    ``mpmath.eighe``, with negative rounding residues clipped to 0; the concurrence is
    max(0, lambda_1 - lambda_2 - lambda_3 - lambda_4), descending.
    """
    r = rho if isinstance(rho, mpmath.matrix) else mpmath.matrix(
        [[mpmath.mpc(complex(x)) for x in row] for row in rho])
    flip = mpmath.matrix(4, 4)
    for i, sign in enumerate((-1, 1, 1, -1)):  # sigma_y x sigma_y is this antidiagonal
        flip[i, 3 - i] = sign
    tilde = flip * r.conjugate() * flip
    w, v = mpmath.eighe(r)
    root = v * mpmath.diag([mpmath.sqrt(max(x, 0)) for x in w]) * v.transpose_conj()
    m = root * tilde * root
    mu = mpmath.eighe((m + m.transpose_conj()) / 2, eigvals_only=True)
    lam = sorted((mpmath.sqrt(max(x, 0)) for x in mu), reverse=True)
    return max(mpmath.mpf(0), lam[0] - lam[1] - lam[2] - lam[3])


def entanglement_of_formation(rho):
    """Wootters' EoF in nats: the entropy of the populations (1 -+ sqrt(1 - C^2)) / 2."""
    c = concurrence(rho)
    return _entropy(mpmath.sqrt(1 - c * c))
